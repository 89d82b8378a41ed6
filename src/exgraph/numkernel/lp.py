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
    a = lp.a.copy()
    b = lp.b.copy()
    senses = list(lp.senses)
    row_sign = np.ones(m)
    for i in range(m):
        if b[i] < 0:
            a[i] *= -1.0
            b[i] *= -1.0
            row_sign[i] = -1.0
            senses[i] = {"<=": ">=", ">=": "<=", "=": "="}[senses[i]]

    slack_cols = []
    art_cols = []
    for i, s in enumerate(senses):
        if s == "<=":
            col = np.zeros(m)
            col[i] = 1.0
            slack_cols.append((i, col, True))
        elif s == ">=":
            col = np.zeros(m)
            col[i] = -1.0
            slack_cols.append((i, col, False))
            art_cols.append(i)
        else:
            art_cols.append(i)

    nslack = len(slack_cols)
    nart = len(art_cols)
    ncols = nstruct + nslack + nart
    tab = np.zeros((m + 1, ncols + 1))
    tab[:m, :nstruct] = a
    basis = [-1] * m
    # per row, the column that starts as the unit vector e_i: its reduced
    # cost is minus the row's dual
    unit_cols = np.zeros(m, dtype=int)
    for idx, (i, col, is_basic) in enumerate(slack_cols):
        tab[:m, nstruct + idx] = col
        if is_basic:
            basis[i] = nstruct + idx
            unit_cols[i] = nstruct + idx
    for idx, i in enumerate(art_cols):
        tab[i, nstruct + nslack + idx] = 1.0
        basis[i] = nstruct + nslack + idx
        unit_cols[i] = nstruct + nslack + idx
    tab[:m, -1] = b

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
