"""Dense two-phase simplex for the small LPs this package generates
(fractional clique cover, polytope membership, circulant spectra).

Every LP has one form: minimise c.x subject to A x (senses) b and x >= 0.
There are no other variable bounds and no maximisation; a caller that needs
either restates its LP in this form (negate c, shift a variable, or add a row).

Pivoting uses the largest-improvement rule and switches to Bland's rule once
50 consecutive degenerate pivots occur, which keeps the method finite.  All
tolerances are absolute; the problems here are well scaled (entries O(1)).

Every row has an artificial column e_i, so every program of a stack has
the same columns.  An artificial that phase 1 leaves basic at zero stays
there, and any entry in its row blocks phase 2's ratio test (Bazaraa,
Jarvis and Sherali, Linear Programming and Network Flows, section 4.3).
The row duals are minus the reduced costs of the artificial block.

A solve costs pivots x rows x columns on a dense tableau, so callers state
each LP on its short side (few rows, many columns).  The optimum carries the
row duals read off the final tableau, so the other side of the LP comes for
free: a caller that wants the long side solves the short one and reads the
answer off `y`.

`lp_solve_many` solves one LP for a stack of right-hand sides (one point
per program in a membership test) by pivoting every program in lockstep:
each step is one stacked numpy call per operation for the whole stack, and
each program keeps its own choices, so its answer is that of a solve on its
own.  `lp_solve` is the stack of one, and `replays` checks a stack of
answers in one call.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

FEAS_TOL = 1e-9
COST_TOL = 1e-9
DEGENERATE_LIMIT = 50
# memory budget of one lp_solve_many call: a chunk's stacked tableau takes at
# most an eighth, a pivot's rank-one temporary as much again, and the rest is
# left for the answers
_STACK_BYTES = 1 << 27
_NO_INDEX = np.iinfo(np.intp).max


class LpError(RuntimeError):
    """Numerical breakdown (pivot limit exceeded)."""


@dataclass
class LinearProgram:
    """minimise c.x subject to a x (senses) b and x >= 0.  b may also be a
    (B, m) stack of right-hand sides, one program per row, for
    lp_solve_many and replays."""

    c: np.ndarray
    a: np.ndarray
    senses: tuple[str, ...]
    b: np.ndarray

    def __post_init__(self):
        self.c = np.asarray(self.c, dtype=float)
        self.a = np.asarray(self.a, dtype=float).reshape(len(self.senses), -1) if len(self.senses) else np.zeros((0, self.c.size))
        self.b = np.asarray(self.b, dtype=float)
        if self.b.ndim not in (1, 2) or self.a.shape != (self.b.shape[-1], self.c.size):
            raise ValueError(
                f"inconsistent LP dimensions: A {self.a.shape}, b {self.b.shape}, c {self.c.size}"
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


def _pivot(tab: np.ndarray, basis: np.ndarray, rows: np.ndarray, cols: np.ndarray, f: np.ndarray, at: np.ndarray) -> None:
    """Pivot program i of the stack on (rows[i], cols[i]), for i in at =
    arange(len(tab)); f[i] is program i's column cols[i] as it stands
    before the pivot, which the pivot overwrites."""
    pivot_rows = tab[at, rows]
    pivot_rows /= f[at, rows][:, None]
    # one rank-one update; a multiplier of at most 1e-14 leaves its row as
    # is.  einsum forms the same products as a broadcast multiply, faster.
    # The pivot rows are then overwritten
    f[np.abs(f) <= 1e-14] = 0.0
    tab -= np.einsum("ki,kj->kij", f, pivot_rows)
    tab[at, rows] = pivot_rows
    basis[at, rows] = cols


def _simplex(tab: np.ndarray, basis: np.ndarray, ncols: int, cap: int, carry: tuple[np.ndarray, ...]) -> np.ndarray:
    """Minimise the cost carried in the last tableau row of every program of
    the stack, in lockstep, entering only the first ncols columns.

    A program stops when it is optimal or unbounded and then leaves the live
    front of the stack, which every later pivot skips.  The stack, basis
    and each array in carry (one entry per program) are permuted in place
    alike; returns, in the new order, which programs are unbounded.  Raises
    LpError when a program still runs after cap pivots.
    """
    k, m = basis.shape
    unbounded = np.zeros(k, dtype=bool)
    if not ncols:  # no column may enter, so every program is optimal
        return unbounded
    # each program's ratio-test minimum at its last DEGENERATE_LIMIT pivots,
    # kept by step modulo the limit: once that many pivots are made, all of
    # them at most 1e-12 is a run of that many degenerate pivots.  No
    # program makes more than cap pivots, so no longer window is kept
    recent = np.zeros((k, min(DEGENERATE_LIMIT, cap)))
    per_program = (tab, basis, unbounded, recent, *carry)
    live, at = k, np.arange(k)
    # the live front: the whole stack until a program stops
    stack, live_basis, live_recent = tab, basis, recent
    cost, rhs = tab[:, -1, :ncols], tab[:, :m, -1]
    no_ratio = np.full((k, m), np.inf)
    # a row held by a column that may not enter (an artificial phase 1 left
    # at zero) must stay at zero, so any nonzero entry there blocks the
    # ratio test; no pivot brings such a column back, so this is decided once
    held = bool((basis >= ncols).any())
    for step in itertools.count():
        if step >= cap:
            raise LpError(f"degenerate pivot limit: no convergence within {cap} pivots")
        # Dantzig's column: the first of least reduced cost, eligible when
        # that cost is below -COST_TOL
        col = cost.argmin(axis=1)
        if step >= DEGENERATE_LIMIT:
            bland = np.logical_and.reduce(live_recent <= 1e-12, axis=1)
            col[bland] = (cost[bland] < -COST_TOL).argmax(axis=1)  # Bland: smallest index
        f = stack[at, :, col]  # each program's column, its reduced cost last
        pos = f[:, :m] > FEAS_TOL
        if held:  # an artificial at zero leaves on any entry in its row
            pos |= (live_basis >= ncols) & (np.abs(f[:, :m]) > FEAS_TOL)
        # a program with no eligible column is optimal; one whose column has
        # no entry the ratio test may take is unbounded
        entering = f[:, m] < -COST_TOL
        go = entering & pos.any(axis=1)
        if not go.all():
            if not go.any():
                unbounded[:live] = entering
                break
            unbounded[:live] = entering & ~go
            order = np.argsort(~go, kind="stable")  # the programs that go on first
            for arr in per_program:
                arr[:live] = arr[:live][order]
            live = int(np.count_nonzero(go))
            stack, live_basis, live_recent = tab[:live], basis[:live], recent[:live]
            cost, rhs = stack[:, -1, :ncols], stack[:, :m, -1]
            col, f, pos = col[go], f[go], pos[go]
            at = at[:live]
        ratios = np.divide(rhs, f[:, :m], out=no_ratio[:live].copy(), where=pos)
        best = ratios.min(axis=1)
        # break ties on the smallest basis index (anti-cycling with Bland)
        row = np.where(ratios <= best[:, None] + 1e-12, live_basis, _NO_INDEX).argmin(axis=1)
        live_recent[:, step % recent.shape[1]] = best
        _pivot(stack, live_basis, row, col, f, at)
    return unbounded


def lp_solve(lp: LinearProgram) -> LpResult:
    """Solve lp for its own right-hand side: the stack of one."""
    if lp.b.ndim != 1:
        raise ValueError("lp_solve takes one right-hand side; lp_solve_many takes a stack")
    return _solve(lp, lp.b[None])[0]


def lp_solve_many(lp: LinearProgram) -> list[LpResult]:
    """Solve lp's c, A and senses for each row of lp.b, a (B, m) stack of
    right-hand sides, pivoting all programs in lockstep.

    Every program makes the choices a solve on its own makes (entering
    column, ratio-test tie, Bland switch, pivot cap), so each answer equals
    lp_solve's on that program bit for bit.  A row whose right-hand side is
    negative is negated, which swaps an inequality's sense; only the sign
    of its slack changes, so every program has the same columns.  The stack
    is solved in chunks whose stacked tableau takes at most an eighth of
    _STACK_BYTES.  Raises LpError when any program passes its pivot cap.
    """
    if lp.b.ndim != 2:
        raise ValueError(f"lp_solve_many takes a (B, m) stack of right-hand sides, got shape {lp.b.shape}")
    return _solve(lp, lp.b)


def _solve(lp: LinearProgram, rhs: np.ndarray) -> list[LpResult]:
    """lp_solve_many on the (B, m) stack rhs."""
    m, nstruct = lp.a.shape
    # orient rows so every rhs is nonnegative
    row_sign = np.where(rhs < 0, -1.0, 1.0)
    width = nstruct + sum(s != "=" for s in lp.senses) + m + 1
    chunk = max(1, _STACK_BYTES // (8 * 8 * (m + 1) * width))
    results: list[LpResult] = []
    for start in range(0, len(rhs), chunk):
        sign = row_sign[start : start + chunk]
        results += _solve_stack(lp, sign, rhs[start : start + chunk] * sign)
    return results


def _solve_stack(lp: LinearProgram, sign: np.ndarray, b: np.ndarray) -> list[LpResult]:
    """Two-phase simplex on a stack of programs that share lp's c and A up to
    the row signs sign, with oriented right-hand sides b >= 0."""
    k = len(b)
    m, nstruct = lp.a.shape
    senses = np.array(lp.senses, dtype="<U2").reshape(m)
    # row i of program p is "<=" once oriented where le[p, i]
    le = np.where(sign < 0, senses == ">=", senses == "<=")
    # columns: structural, then one slack per inequality row (+1 on "<=",
    # -1 on ">="), then one artificial e_i per row, each in row order
    slack_rows = (senses != "=").nonzero()[0]
    first_art = nstruct + slack_rows.size
    ncols = first_art + m
    slack_cols, art_cols = np.arange(nstruct, first_art), np.arange(first_art, ncols)
    tab = np.zeros((k, m + 1, ncols + 1))
    tab[:, :m, :nstruct] = lp.a * sign[:, :, None]
    tab[:, slack_rows, slack_cols] = np.where(le[:, slack_rows], 1.0, -1.0)
    tab[:, :m, first_art:ncols] = np.eye(m)
    tab[:, :m, -1] = b
    # the start basis holds each row's unit column e_i: its slack on a "<="
    # row, else its artificial
    row_slack = np.zeros(m, dtype=np.intp)
    row_slack[slack_rows] = slack_cols
    basis = np.where(le, row_slack, art_cols)
    ids = np.arange(k)
    results = [LpResult("infeasible") for _ in range(k)]
    cap = 2000 + 200 * (m + ncols)  # pivots per phase

    # phase 1: minimise the sum of the artificials, its cost row reduced by
    # each row whose artificial is basic, in row order (subtracting +0.0 for
    # the other rows changes no entry)
    if not le.all():
        tab[:, -1, first_art:ncols] = 1.0
        rows = np.concatenate([tab[:, -1:], tab[:, :m]], axis=1)
        rows[:, 1:][le] = 0.0
        tab[:, -1] = np.subtract.reduce(rows, axis=1)
        if _simplex(tab, basis, ncols, cap, (ids, sign)).any():
            raise LpError("phase 1 reported unbounded")  # cannot happen: the objective is bounded below
        feasible = -tab[:, -1, -1] <= 1e-7
        if not feasible.all():
            if not feasible.any():
                return results
            tab, basis, ids, sign = tab[feasible], basis[feasible], ids[feasible], sign[feasible]

    # phase 2: the real objective, its cost row reduced by each basic
    # structural column's row in row order (a zero cost changes no entry)
    tab[:, -1] = 0.0
    tab[:, -1, :nstruct] = lp.c
    coef = np.concatenate((lp.c, np.zeros(ncols - nstruct)))[basis]
    if coef.any():
        rows = np.concatenate([tab[:, -1:], coef[:, :, None] * tab[:, :m]], axis=1)
        tab[:, -1] = np.subtract.reduce(rows, axis=1)
    unbounded = _simplex(tab, basis, first_art, cap, (ids, sign))

    values = np.zeros((len(tab), ncols))
    values[np.arange(len(tab))[:, None], basis] = tab[:, :m, -1]
    x = values[:, :nstruct] + 0.0  # + 0.0 clears -0.0
    # the dual of row i is minus the reduced cost of its artificial e_i
    # (zero where that artificial is still basic).  Undo the row
    # orientation; 0.0 - v clears -0.0 as + 0.0 does.
    y = 0.0 - tab[:, -1, first_art:ncols] * sign
    for i, xi, yi, unb in zip(ids.tolist(), x, y, unbounded.tolist()):
        results[i] = LpResult("unbounded") if unb else LpResult("optimal", float(lp.c @ xi), xi, yi)
    return results


def replays(lp: LinearProgram, x, y, tol: float):
    """Does (x, y) replay as an optimal primal-dual pair of lp, each check
    within tol?  x >= 0 meets every row in its sense; y has each row's dual
    sign (y >= 0 on ">=" rows, y <= 0 on "<=" rows); A^T y <= c; and the
    gap |c.x - b.y| is at most tol, so both are optimal by weak duality.

    x, y and lp.b may carry a leading stack axis, one program per row; the
    answer is then one bool per program."""
    x, y = np.asarray(x, dtype=float), np.asarray(y, dtype=float)
    ge, le = (np.array([s == sense for s in lp.senses], dtype=bool) for sense in (">=", "<="))
    eq = ~(ge | le)
    slack = x @ lp.a.T - lp.b
    ok = (
        np.all(x >= -tol, axis=-1)
        & np.all(slack[..., ge] >= -tol, axis=-1) & np.all(slack[..., le] <= tol, axis=-1)
        & np.all(np.abs(slack[..., eq]) <= tol, axis=-1)
        & np.all(y[..., ge] >= -tol, axis=-1) & np.all(y[..., le] <= tol, axis=-1)
        & np.all(y @ lp.a - lp.c <= tol, axis=-1)
        & (np.abs(x @ lp.c - (lp.b * y).sum(axis=-1)) <= tol)
    )
    return bool(ok) if ok.ndim == 0 else ok
