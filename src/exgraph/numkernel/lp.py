"""Dense two-phase simplex for the small LPs this package generates
(fractional clique cover, polytope membership, circulant spectra).

Every LP has one form: minimise c.x subject to A x (senses) b and x >= 0.
There are no other variable bounds and no maximisation; a caller that needs
either restates its LP in this form (negate c, shift a variable, or add a row).

Pivoting uses the largest-improvement rule and switches to Bland's rule once
50 consecutive degenerate pivots occur, which keeps the method finite.  All
tolerances are absolute; the problems here are well scaled (entries O(1)).

A solve costs pivots x rows x columns on a dense tableau, so callers state
each LP on its short side (few rows, many columns).  The optimum carries the
row duals read off the final tableau, so the other side of the LP comes for
free: a caller that wants the long side solves the short one and reads the
answer off `y`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

FEAS_TOL = 1e-9
COST_TOL = 1e-9
DEGENERATE_LIMIT = 50


class LpError(RuntimeError):
    """Numerical breakdown (pivot limit exceeded)."""


@dataclass
class LinearProgram:
    """minimise c.x subject to a x (senses) b and x >= 0."""

    c: np.ndarray
    a: np.ndarray
    senses: tuple[str, ...]
    b: np.ndarray

    def __post_init__(self):
        self.c = np.asarray(self.c, dtype=float)
        self.a = np.asarray(self.a, dtype=float).reshape(len(self.senses), -1) if len(self.senses) else np.zeros((0, self.c.size))
        self.b = np.asarray(self.b, dtype=float)
        if self.a.shape != (self.b.size, self.c.size):
            raise ValueError(
                f"inconsistent LP dimensions: A {self.a.shape}, b {self.b.size}, c {self.c.size}"
            )
        for s in self.senses:
            if s not in ("<=", "=", ">="):
                raise ValueError(f"unknown row sense {s!r}")
        if not (np.all(np.isfinite(self.c)) and np.all(np.isfinite(self.a)) and np.all(np.isfinite(self.b))):
            raise ValueError("LP data must be finite")


@dataclass
class LpResult:
    """`y` holds one dual per row: y_i is the rate at which the minimum moves
    with b_i.  b.y equals the value and y is optimal for the dual LP, max b.y
    subject to A^T y <= c with y_i >= 0 on ">=" rows and <= 0 on "<=" rows."""

    status: str  # "optimal" | "infeasible" | "unbounded"
    value: float | None = None
    x: np.ndarray | None = None
    y: np.ndarray | None = None


def _pivot(tab: np.ndarray, basis: list[int], row: int, col: int) -> None:
    tab[row] /= tab[row, col]
    # one rank-one update; a multiplier of at most 1e-14 leaves its row as is
    f = tab[:, col].copy()
    f[row] = 0.0
    f[np.abs(f) <= 1e-14] = 0.0
    tab -= f[:, None] * tab[row]
    basis[row] = col


def _run_simplex(tab: np.ndarray, basis: list[int], ncols: int, allowed: np.ndarray) -> str:
    """Minimize the cost carried in the last tableau row over columns marked allowed.

    Returns "optimal" or "unbounded"; raises LpError past the pivot cap.
    """
    m = tab.shape[0] - 1
    degenerate_streak = 0
    max_iter = 2000 + 200 * (m + ncols)
    for _ in range(max_iter):
        cost = tab[-1, :ncols]
        eligible = np.where(allowed[:ncols] & (cost < -COST_TOL))[0]
        if eligible.size == 0:
            return "optimal"
        if degenerate_streak >= DEGENERATE_LIMIT:
            col = int(eligible[0])  # Bland: smallest index
        else:
            col = int(eligible[np.argmin(cost[eligible])])
        colvals = tab[:m, col]
        pos = np.where(colvals > FEAS_TOL)[0]
        if pos.size == 0:
            return "unbounded"
        ratios = tab[pos, -1] / colvals[pos]
        best = np.min(ratios)
        ties = pos[ratios <= best + 1e-12]
        # break ties on the smallest basis index (anti-cycling with Bland)
        row = int(min(ties, key=lambda r: basis[r]))
        if best <= 1e-12:
            degenerate_streak += 1
        else:
            degenerate_streak = 0
        _pivot(tab, basis, row, col)
    raise LpError(f"degenerate pivot limit: no convergence within {max_iter} pivots")


def lp_solve(lp: LinearProgram) -> LpResult:
    m, nstruct = lp.a.shape

    # orient rows so every rhs is nonnegative
    row_sign = np.where(lp.b < 0, -1.0, 1.0)
    a = lp.a * row_sign[:, None]
    b = lp.b * row_sign
    flip = {"<=": ">=", ">=": "<=", "=": "="}
    senses = [flip[s] if sign < 0 else s for s, sign in zip(lp.senses, row_sign)]

    # columns: structural, then one slack per inequality row (+1 on "<=",
    # -1 on ">="), then one artificial per ">=" or "=" row, each in row order
    le = np.array([s == "<=" for s in senses], dtype=bool)
    slack_rows = np.flatnonzero([s != "=" for s in senses])
    art_rows = np.flatnonzero(~le)
    nslack = slack_rows.size
    nart = art_rows.size
    ncols = nstruct + nslack + nart
    tab = np.zeros((m + 1, ncols + 1))
    tab[:m, :nstruct] = a
    tab[slack_rows, nstruct + np.arange(nslack)] = np.where(le[slack_rows], 1.0, -1.0)
    tab[art_rows, nstruct + nslack + np.arange(nart)] = 1.0
    tab[:m, -1] = b
    # the start basis holds each row's unit column e_i: its slack, or its
    # artificial where there is one (a ">=" slack is -e_i).  The reduced cost
    # of that column is minus the row's dual
    unit_cols = np.empty(m, dtype=int)
    unit_cols[slack_rows] = nstruct + np.arange(nslack)
    unit_cols[art_rows] = nstruct + nslack + np.arange(nart)
    basis = unit_cols.tolist()

    allowed = np.ones(ncols, dtype=bool)

    # phase 1: minimize the artificial sum
    if nart:
        tab[-1, :] = 0.0
        tab[-1, nstruct + nslack : nstruct + nslack + nart] = 1.0
        for r in range(m):
            if basis[r] >= nstruct + nslack:
                tab[-1] -= tab[r]
        status = _run_simplex(tab, basis, ncols, allowed)
        if status == "unbounded":  # cannot happen for a bounded-below phase-1 objective
            raise LpError("phase 1 reported unbounded")
        if -tab[-1, -1] > 1e-7:
            return LpResult("infeasible")
        # drive leftover artificials out of the basis
        drop_rows = []
        for r in range(m):
            if basis[r] >= nstruct + nslack:
                row = tab[r, : nstruct + nslack]
                pivots = np.where(np.abs(row) > FEAS_TOL)[0]
                if pivots.size:
                    _pivot(tab, basis, r, int(pivots[np.argmax(np.abs(row[pivots]))]))
                else:
                    drop_rows.append(r)
        if drop_rows:
            keep = [r for r in range(m) if r not in drop_rows]
            tab = np.vstack([tab[keep], tab[-1:]])
            basis = [basis[r] for r in keep]
            m = len(basis)
        allowed[nstruct + nslack :] = False

    # phase 2: the real objective
    tab[-1, :] = 0.0
    tab[-1, :nstruct] = lp.c
    for r in range(m):
        bc = basis[r]
        if bc < nstruct and abs(lp.c[bc]) > 0:
            tab[-1] -= lp.c[bc] * tab[r]
    status = _run_simplex(tab, basis, ncols, allowed)
    if status == "unbounded":
        return LpResult("unbounded")

    values = np.zeros(ncols)
    values[basis] = tab[:m, -1]
    x = values[:nstruct] + 0.0  # + 0.0 clears -0.0
    value = float(lp.c @ x)
    # the dual of row i is minus the reduced cost of its unit column.  When
    # phase 1 drops a redundant row, the artificial that was basic there
    # keeps a zero column, so its row reads 0.  Undo the row orientation.
    y = -tab[-1, unit_cols] * row_sign + 0.0
    return LpResult("optimal", value, x, y)


def replays(lp: LinearProgram, x, y, tol: float) -> bool:
    """Does (x, y) replay as an optimal primal-dual pair of lp, each check
    within tol?  x >= 0 meets every row in its sense; y has each row's dual
    sign (y >= 0 on ">=" rows, y <= 0 on "<=" rows); A^T y <= c; and the
    gap |c.x - b.y| is at most tol, so both are optimal by weak duality."""
    x, y = np.asarray(x, dtype=float), np.asarray(y, dtype=float)
    ge, le = (np.array([s == sense for s in lp.senses], dtype=bool) for sense in (">=", "<="))
    slack = lp.a @ x - lp.b
    return bool(
        np.all(x >= -tol)
        and np.all(slack[ge] >= -tol) and np.all(slack[le] <= tol) and np.all(np.abs(slack[~(ge | le)]) <= tol)
        and np.all(y[ge] >= -tol) and np.all(y[le] <= tol)
        and np.all(y @ lp.a - lp.c <= tol)
        and abs(lp.c @ x - lp.b @ y) <= tol
    )
