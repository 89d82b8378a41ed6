"""Numeric kernel checks: simplex LP, theta-program SDP, complex matrix
helpers.

The LP optimum is cross-checked against an independent vertex-enumeration
oracle on small random instances and its duals against strong duality and
complementary slackness, the SDP against hand-solvable programs and the
pentagon value sqrt(5), and a stack of SDPs against separate solves.
"""

import itertools
import math
import unittest
import unittest.mock

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from exgraph.numkernel import (
    LinearProgram,
    LpError,
    SdpError,
    is_hermitian,
    is_projector,
    lp_solve,
    lp_solve_many,
    replays,
    sdp_solve,
    sdp_solve_many,
    tensor_product,
)
from exgraph.numkernel import lp as lp_kernel
from exgraph.numkernel import sdp
from oracles import brute_independence, exact_is_pd


def _vertex_enumeration_max(c, a, b, hi):
    """Independent LP oracle: max c.x, a x <= b, 0 <= x <= hi, by checking
    every basic point (intersection of n constraint hyperplanes)."""
    n = len(c)
    rows = [np.asarray(r, dtype=float) for r in a]
    rhs = list(b)
    for i in range(n):
        e = np.zeros(n)
        e[i] = 1.0
        rows += [e, -e]
        rhs += [hi, 0.0]
    best = None
    for pick in itertools.combinations(range(len(rows)), n):
        m = np.array([rows[i] for i in pick])
        if abs(np.linalg.det(m)) < 1e-9:
            continue
        x = np.linalg.solve(m, np.array([rhs[i] for i in pick]))
        if all(np.dot(r, x) <= v + 1e-8 for r, v in zip(rows, rhs)):
            val = float(np.dot(c, x))
            if best is None or val > best:
                best = val
    return best


class TestSimplex(unittest.TestCase):
    def test_small_max_problem(self):
        # max 3x + 2y as min -3x - 2y
        lp = LinearProgram(
            c=[-3.0, -2.0],
            a=[[1.0, 1.0], [1.0, 0.0]],
            senses=("<=", "<="),
            b=[4.0, 2.0],
        )
        res = lp_solve(lp)
        self.assertEqual(res.status, "optimal")
        self.assertAlmostEqual(res.value, -10.0, places=9)
        np.testing.assert_allclose(res.x, [2.0, 2.0], atol=1e-9)

    def test_equality_and_lower_bound(self):
        # the lower bound x_0 >= 1 is a row
        lp = LinearProgram(
            c=[1.0, 1.0],
            a=[[1.0, 2.0], [1.0, 0.0]],
            senses=("=", ">="),
            b=[4.0, 1.0],
        )
        res = lp_solve(lp)
        self.assertEqual(res.status, "optimal")
        self.assertAlmostEqual(res.value, 2.5, places=9)

    def test_infeasible(self):
        lp = LinearProgram(
            c=[1.0],
            a=[[1.0], [1.0]],
            senses=("<=", ">="),
            b=[1.0, 2.0],
        )
        self.assertEqual(lp_solve(lp).status, "infeasible")

    def test_unbounded(self):
        lp = LinearProgram(
            c=[-1.0, 0.0],
            a=[[0.0, 1.0]],
            senses=("<=",),
            b=[1.0],
        )
        self.assertEqual(lp_solve(lp).status, "unbounded")

    def test_dimension_validation(self):
        with self.assertRaises(ValueError):
            LinearProgram(c=[1.0, 2.0], a=[[1.0]], senses=("<=",), b=[1.0])
        with self.assertRaises(ValueError):
            LinearProgram(c=[1.0], a=[[1.0]], senses=("??",), b=[1.0])

    def test_against_vertex_enumeration(self):
        rng = np.random.default_rng(42)
        for trial in range(30):
            n = int(rng.integers(2, 4))
            m = int(rng.integers(2, 6))
            c = rng.normal(size=n)
            a = rng.normal(size=(m, n))
            b = rng.uniform(0.5, 3.0, size=m)
            expect = _vertex_enumeration_max(c, a, b, hi=10.0)
            self.assertIsNotNone(expect, msg=f"trial {trial} oracle found no vertex")
            # max c.x with x <= 10 as rows, solved as min -c.x
            lp = LinearProgram(
                c=-c, a=np.vstack([a, np.eye(n)]), senses=("<=",) * (m + n), b=np.append(b, np.full(n, 10.0)),
            )
            res = lp_solve(lp)
            self.assertEqual(res.status, "optimal")
            self.assertAlmostEqual(-res.value, expect, places=6, msg=f"trial {trial}")
            self.assertTrue(np.all(a @ res.x <= b + 1e-8))
            self.assertTrue(np.all(res.x >= -1e-9) and np.all(res.x <= 10.0 + 1e-9))


_FLIP = {"<=": ">=", ">=": "<=", "=": "="}


@st.composite
def _feasible_lps(draw):
    """A feasible LP over x >= 0 whose rows include a bounding sum(x) <= s,
    with mixed senses, rows negated (so some right-hand sides are negative)
    and one row repeated."""
    n = draw(st.integers(1, 4))
    m = draw(st.integers(1, 4))
    a = np.array(draw(st.lists(st.integers(-3, 3), min_size=m * n, max_size=m * n)), dtype=float).reshape(m, n)
    x0 = np.array(draw(st.lists(st.integers(0, 2), min_size=n, max_size=n)), dtype=float)
    senses = draw(st.lists(st.sampled_from(("<=", ">=", "=")), min_size=m, max_size=m))
    gaps = np.array(draw(st.lists(st.integers(0, 2), min_size=m, max_size=m)), dtype=float)
    b = a @ x0 + np.array([{"<=": 1.0, ">=": -1.0, "=": 0.0}[s] for s in senses]) * gaps
    a = np.vstack([a, np.ones(n)])
    b = np.append(b, x0.sum() + draw(st.integers(0, 3)))
    senses.append("<=")
    for i in draw(st.lists(st.integers(0, m), max_size=m + 1, unique=True)):
        a[i], b[i], senses[i] = -a[i], -b[i], _FLIP[senses[i]]
    dup = draw(st.integers(0, m))
    a = np.vstack([a, a[dup]])
    b = np.append(b, b[dup])
    senses.append(senses[dup])
    c = np.array(draw(st.lists(st.integers(-3, 3), min_size=n, max_size=n)), dtype=float)
    return LinearProgram(c=c, a=a, senses=tuple(senses), b=b)


class TestLpDuals(unittest.TestCase):
    @settings(derandomize=True, database=None, max_examples=200, deadline=None)
    @given(_feasible_lps())
    def test_duals_are_optimal(self, lp):
        res = lp_solve(lp)
        self.assertEqual(res.status, "optimal")
        x, y = res.x, res.y
        self.assertEqual(y.shape, lp.b.shape)
        # strong duality
        self.assertLessEqual(abs(lp.b @ y - res.value), 1e-9)
        self.assertLessEqual(abs(lp.c @ x - res.value), 1e-9)
        # dual feasibility of a minimisation
        reduced = lp.c - lp.a.T @ y
        self.assertGreaterEqual(reduced.min(), -1e-9)
        for yi, s in zip(y, lp.senses):
            if s == "<=":
                self.assertLessEqual(yi, 1e-9)
            elif s == ">=":
                self.assertGreaterEqual(yi, -1e-9)
        # complementary slackness
        self.assertLessEqual(np.max(np.abs(y * (lp.b - lp.a @ x))), 1e-9)
        self.assertLessEqual(np.max(np.abs(x * reduced)), 1e-9)
        self.assertTrue(replays(lp, x, y, 1e-9))


def _tight_lp(sense):
    """One tight row x1 + x2 (sense) 1 with a nonzero dual, and costs that
    make the optimum and its dual unique: min x1 + 2 x2, or max x1 + 2 x2
    as min -x1 - 2 x2 on a "<=" row."""
    sign = -1.0 if sense == "<=" else 1.0
    return LinearProgram(c=[sign, 2.0 * sign], a=[[1.0, 1.0]], senses=(sense,), b=[1.0])


class TestReplays(unittest.TestCase):
    def test_every_seeded_optimum_replays(self):
        solved = 0
        for lp in _seeded_lps(np.random.default_rng(2024)):
            res = lp_solve(lp)
            if res.status == "optimal":
                solved += 1
                self.assertTrue(replays(lp, res.x, res.y, 1e-9))
        self.assertGreater(solved, 50)

    def test_a_small_change_to_one_coordinate_fails(self):
        for sense in ("<=", ">=", "="):
            lp = _tight_lp(sense)
            res = lp_solve(lp)
            self.assertEqual(res.status, "optimal")
            self.assertTrue(replays(lp, res.x, res.y, 1e-9), msg=sense)
            for side in ("x", "y"):
                for i in range(getattr(res, side).size):
                    for step in (1e-6, -1e-6):
                        x, y = res.x.copy(), res.y.copy()
                        (x if side == "x" else y)[i] += step
                        self.assertFalse(replays(lp, x, y, 1e-9), msg=f"{sense} {side}[{i}] {step:+g}")

    def test_each_check_is_needed(self):
        # x1 >= 1 with cost 1: x = 1, y = 1.  Each pair breaks one check only.
        lp = LinearProgram(c=[1.0], a=[[1.0]], senses=(">=",), b=[1.0])
        self.assertTrue(replays(lp, [1.0], [1.0], 1e-9))
        for x, y in (([0.5], [0.5]), ([2.0], [2.0]), ([1.0], [0.5])):
            self.assertFalse(replays(lp, x, y, 1e-9), msg=(x, y))
        # a ">=" row with b = 0 that x leaves slack: a negative dual there is
        # caught by the sign check alone
        lp = LinearProgram(c=[1.0], a=[[1.0], [1.0]], senses=(">=", ">="), b=[1.0, 0.0])
        self.assertTrue(replays(lp, [1.0], [1.0, 0.0], 1e-9))
        self.assertFalse(replays(lp, [1.0], [1.0 + 1e-6, -1e-6], 1e-9))
        # an x that meets the row and the gap but has a negative coordinate
        lp = LinearProgram(c=[0.0, 0.0], a=[[1.0, 1.0]], senses=("=",), b=[1.0])
        self.assertTrue(replays(lp, [1.0, 0.0], [0.0], 1e-9))
        self.assertFalse(replays(lp, [1.0 + 1e-6, -1e-6], [0.0], 1e-9))


PENTAGON_EDGES = (np.arange(5), (np.arange(5) + 1) % 5)
NO_EDGES = ((), ())


def _row_loop_pivot(tab, basis, rows, cols, f, at):
    """Reference pivot: one program and one row at a time, skipping
    multipliers <= 1e-14; it reads the pivot columns off tab, not f."""
    for t, b, row, col in zip(tab, basis, rows, cols):
        t[row] /= t[row, col]
        piv = t[row]
        for r in range(t.shape[0]):
            if r != row and abs(t[r, col]) > 1e-14:
                t[r] -= t[r, col] * piv
        b[row] = col


def _seeded_lps(rng):
    """Dense LPs with mixed senses and negative right-hand sides, clique-cover
    style 0/1 covers, and hull LPs with equality rows whose points lie inside
    or outside, so both phases, redundant rows and every status occur."""
    for _ in range(40):
        m, n = int(rng.integers(2, 9)), int(rng.integers(2, 12))
        a = rng.integers(-3, 4, size=(m, n)).astype(float)
        senses = tuple(rng.choice(["<=", ">=", "="], size=m))
        b = a @ rng.integers(0, 3, size=n) + rng.integers(-1, 2, size=m)
        if rng.random() < 0.8:
            a, b, senses = np.vstack([a, np.ones(n)]), np.append(b, 6.0), senses + ("<=",)
        yield LinearProgram(c=rng.integers(-3, 4, size=n), a=a, senses=senses, b=b)
    for _ in range(30):
        n, k = int(rng.integers(3, 10)), int(rng.integers(3, 40))
        a = (rng.random((n, k)) < 0.4).astype(float)
        a[np.arange(n), rng.integers(0, k, size=n)] = 1.0
        yield LinearProgram(c=np.ones(k), a=a, senses=(">=",) * n, b=np.ones(n))
    for _ in range(30):
        d, k = int(rng.integers(2, 7)), int(rng.integers(3, 30))
        ext = np.vstack([(rng.random((d, k)) < 0.5).astype(float), np.ones(k)])
        point = ext[:d] @ rng.dirichlet(np.ones(k)) + (rng.random() < 0.5) * rng.normal(0.0, 0.3, size=d)
        yield LinearProgram(c=np.zeros(k), a=ext, senses=("=",) * (d + 1), b=np.append(point, 1.0))


class TestRankOnePivot(unittest.TestCase):
    def _solve(self, lp, pivot):
        count = [0]

        def counted(*args):
            count[0] += 1
            pivot(*args)

        with unittest.mock.patch.object(lp_kernel, "_pivot", counted):
            return lp_solve(lp), count[0]

    def test_a_stack_matches_the_row_loop_bit_for_bit(self):
        rng = np.random.default_rng(3)
        ext = np.vstack([(rng.random((5, 20)) < 0.5).astype(float), np.ones(20)])
        rhs = np.hstack([rng.dirichlet(np.ones(20), size=12) @ ext[:5].T, np.ones((12, 1))])
        rhs[::2, :5] += rng.normal(0.0, 0.3, size=(6, 5))
        lp = LinearProgram(c=np.zeros(20), a=ext, senses=("=",) * 6, b=rhs)
        with unittest.mock.patch.object(lp_kernel, "_pivot", _row_loop_pivot):
            want = lp_solve_many(lp)
        for got, ref in zip(lp_solve_many(lp), want):
            self.assertEqual(got.status, ref.status)
            if got.status == "optimal":
                self.assertEqual(got.x.tobytes(), ref.x.tobytes())
                self.assertEqual(got.y.tobytes(), ref.y.tobytes())

    def test_matches_the_row_loop_bit_for_bit(self):
        statuses = set()
        for lp in _seeded_lps(np.random.default_rng(2024)):
            got, got_pivots = self._solve(lp, lp_kernel._pivot)
            ref, ref_pivots = self._solve(lp, _row_loop_pivot)
            statuses.add(got.status)
            self.assertEqual((got.status, got_pivots), (ref.status, ref_pivots))
            if got.status == "optimal":
                self.assertEqual(got.x.tobytes(), ref.x.tobytes())
                self.assertEqual(got.y.tobytes(), ref.y.tobytes())
                self.assertEqual(got.value, ref.value)
        self.assertEqual(statuses, {"optimal", "infeasible", "unbounded"})


@st.composite
def _lp_stacks(draw):
    """One c, A and senses with a stack of right-hand sides of mixed signs,
    so a stack mixes row orientations; right-hand sides drawn apart from any
    x make infeasible programs, and stacks without the bounding row
    unbounded ones.  The degenerate-pivot limit is drawn too, low enough
    that Bland's rule takes over in these small programs."""
    n = draw(st.integers(1, 5))
    m = draw(st.integers(1, 5))
    a = np.array(draw(st.lists(st.integers(-3, 3), min_size=m * n, max_size=m * n)), dtype=float).reshape(m, n)
    senses = tuple(draw(st.lists(st.sampled_from(("<=", ">=", "=")), min_size=m, max_size=m)))
    count = draw(st.integers(1, 6))
    rhs = np.array(draw(st.lists(st.integers(-3, 3), min_size=count * m, max_size=count * m)), dtype=float)
    rhs = rhs.reshape(count, m)
    if draw(st.booleans()):
        a = np.vstack([a, np.ones(n)])
        rhs = np.hstack([rhs, np.full((count, 1), float(draw(st.integers(0, 4))))])
        senses += ("<=",)
    c = np.array(draw(st.lists(st.integers(-3, 3), min_size=n, max_size=n)), dtype=float)
    limit = draw(st.sampled_from((1, 2, 3, lp_kernel.DEGENERATE_LIMIT)))
    return LinearProgram(c=c, a=a, senses=senses, b=rhs), limit


def _solve_each(lp):
    """lp_solve on each right-hand side of lp's stack alone; None where it
    raises LpError."""
    out = []
    for b in lp.b:
        try:
            out.append(lp_solve(LinearProgram(c=lp.c, a=lp.a, senses=lp.senses, b=b)))
        except LpError:
            out.append(None)
    return out


class TestLockstep(unittest.TestCase):
    def assert_same(self, got, want):
        self.assertEqual(got.status, want.status)
        if want.status == "optimal":
            self.assertEqual(got.x.tobytes(), want.x.tobytes())
            self.assertEqual(got.y.tobytes(), want.y.tobytes())
            self.assertEqual(got.value, want.value)

    def assert_stack_matches(self, lp):
        want = _solve_each(lp)
        try:
            got = lp_solve_many(lp)
        except LpError:
            self.assertIn(None, want)
            return []
        self.assertNotIn(None, want)
        for g, w in zip(got, want):
            self.assert_same(g, w)
        return got

    @settings(derandomize=True, database=None, max_examples=300, deadline=None)
    @given(_lp_stacks())
    def test_a_stack_equals_separate_solves_bit_for_bit(self, case):
        lp, limit = case
        with unittest.mock.patch.object(lp_kernel, "DEGENERATE_LIMIT", limit):
            self.assert_stack_matches(lp)

    def test_seeded_stacks_reach_every_status_and_blands_rule(self):
        # Degenerate programs (most right-hand sides 0) run long streaks of
        # degenerate pivots; with the real limit of 50 some switch to
        # Bland's rule, which shows as a different pivot count when the
        # switch is disabled.
        rng = np.random.default_rng(2026)
        statuses = set()
        switched = 0
        for trial in range(40):
            m, n = int(rng.integers(10, 25)), int(rng.integers(10, 30))
            a = rng.integers(-2, 3, size=(m, n)).astype(float)
            senses = tuple(rng.choice(["<=", "<=", "<=", ">="], size=m))
            rhs = np.where(rng.random((6, m)) < 0.85, 0.0, rng.integers(-1, 2, size=(6, m)))
            if trial % 2:  # bounded by sum(x) <= 1, or infeasible where that row reads <= -1
                a, senses = np.vstack([a, np.ones(n)]), senses + ("<=",)
                rhs = np.hstack([rhs, np.where(rng.random((6, 1)) < 0.8, 1.0, -1.0)])
            lp = LinearProgram(c=rng.integers(-3, 2, size=n), a=a, senses=senses, b=rhs)
            statuses.update(res.status for res in self.assert_stack_matches(lp))
            counts = []
            for limit in (lp_kernel.DEGENERATE_LIMIT, 10**9):
                pivots = [0]
                pivot = lp_kernel._pivot

                def counted(*args):
                    pivots[0] += 1
                    pivot(*args)

                with unittest.mock.patch.object(lp_kernel, "DEGENERATE_LIMIT", limit), \
                        unittest.mock.patch.object(lp_kernel, "_pivot", counted):
                    lp_solve_many(lp)
                counts.append(pivots[0])
            switched += counts[0] != counts[1]
        self.assertEqual(statuses, {"optimal", "infeasible", "unbounded"})
        self.assertGreater(switched, 0)

    def test_hull_stacks_with_redundant_rows(self):
        # repeated rows leave an artificial basic at zero after phase 1,
        # which blocks the ratio test in its row; which rows are held that
        # way differs across the stack
        rng = np.random.default_rng(11)
        for _ in range(30):
            d, k = int(rng.integers(2, 6)), int(rng.integers(3, 25))
            v = (rng.random((d, k)) < 0.5).astype(float)
            ext = np.vstack([v, v[:1], np.ones(k)])
            points = v @ rng.dirichlet(np.ones(k), size=8).T
            points[:, ::3] += rng.normal(0.0, 0.3, size=(d, points[:, ::3].shape[1]))
            rhs = np.vstack([points, points[:1], np.ones(8)]).T
            lp = LinearProgram(c=np.zeros(k), a=ext, senses=("=",) * (d + 2), b=rhs)
            self.assert_stack_matches(lp)

    def test_an_artificial_left_at_zero_blocks_the_ratio_test(self):
        # points at hull vertices end phase 1 with an artificial basic at
        # zero; phase 2 never enters it, and an entering column with a
        # negative entry in its row pivots there, so it leaves at zero.
        # One program of this stack does so, while the others pivot on
        # as usual
        rng = np.random.default_rng(3)
        v = rng.integers(0, 4, size=(5, 10)) / 3.0
        points = rng.dirichlet(np.full(10, 0.3), size=12) @ v.T
        points[::3] = v.T[rng.integers(0, 10, size=4)]
        lp = LinearProgram(c=rng.normal(size=10), a=np.vstack([v, np.ones(10)]), senses=("=",) * 6,
                           b=np.hstack([points, np.ones((12, 1))]))
        pivot = lp_kernel._pivot
        blocked = []

        def spy(tab, basis, rows, cols, f, at):
            # the artificials are columns 10 to 15: ten structural columns
            # and no slacks
            held = (basis[at, rows] >= 10) & (f[at, rows] < 0.0)
            blocked.append((int(held.sum()), len(tab)))
            pivot(tab, basis, rows, cols, f, at)

        got = self.assert_stack_matches(lp)
        with unittest.mock.patch.object(lp_kernel, "_pivot", spy):
            lp_solve_many(lp)
        self.assertEqual(sum(count for count, _ in blocked), 1)
        self.assertTrue(all(size > 1 for count, size in blocked if count))
        self.assertEqual([res.status for res in got], ["optimal"] * 12)
        self.assertTrue(replays(lp, [res.x for res in got], [res.y for res in got], 1e-9).all())

    def test_rows_oriented_both_ways_share_one_tableau(self):
        # negative right-hand sides turn the "<=" row into ">=" in some
        # programs and the ">=" row into "<=" in others; the stack is still
        # one tableau
        lp = LinearProgram(
            c=[1.0, -1.0, 2.0],
            a=[[1.0, 1.0, 0.0], [1.0, -2.0, 1.0], [0.0, 1.0, 1.0]],
            senses=("<=", ">=", "="),
            b=[[3.0, 1.0, 1.0], [-1.0, 1.0, 2.0], [2.0, -3.0, 1.0], [-2.0, -1.0, 0.5], [4.0, 0.0, 3.0]],
        )
        got = self.assert_stack_matches(lp)
        with unittest.mock.patch.object(lp_kernel, "_solve_stack", wraps=lp_kernel._solve_stack) as stack:
            lp_solve_many(lp)
        self.assertEqual(stack.call_count, 1)
        self.assertEqual(len(got), 5)
        optimal = [i for i, res in enumerate(got) if res.status == "optimal"]
        self.assertGreaterEqual(len(optimal), 2)
        one = LinearProgram(c=lp.c, a=lp.a, senses=lp.senses, b=lp.b[optimal])
        self.assertTrue(replays(one, [got[i].x for i in optimal], [got[i].y for i in optimal], 1e-9).all())

    def test_empty_stack_and_bad_shapes(self):
        lp = _tight_lp(">=")
        self.assertEqual(lp_solve_many(LinearProgram(c=lp.c, a=lp.a, senses=lp.senses, b=np.zeros((0, 1)))), [])
        with self.assertRaises(ValueError):
            lp_solve_many(lp)
        with self.assertRaises(ValueError):
            LinearProgram(c=lp.c, a=lp.a, senses=lp.senses, b=[[1.0, 2.0]])
        with self.assertRaises(ValueError):
            lp_solve(LinearProgram(c=lp.c, a=lp.a, senses=lp.senses, b=[[1.0], [2.0]]))

    def test_chunks_match_one_stack(self):
        # a budget of one program per chunk gives the same answers
        rng = np.random.default_rng(5)
        ext = np.vstack([(rng.random((4, 12)) < 0.5).astype(float), np.ones(12)])
        rhs = np.hstack([rng.uniform(0.0, 1.0, size=(20, 4)), np.ones((20, 1))])
        lp = LinearProgram(c=np.zeros(12), a=ext, senses=("=",) * 5, b=rhs)
        whole = lp_solve_many(lp)
        with unittest.mock.patch.object(lp_kernel, "_STACK_BYTES", 1):
            for got, want in zip(lp_solve_many(lp), whole):
                self.assert_same(got, want)

    def test_replays_checks_each_program_of_a_stack(self):
        lp = LinearProgram(c=[1.0], a=[[1.0]], senses=(">=",), b=[[1.0], [2.0]])
        solved = lp_solve_many(lp)
        x, y = [res.x for res in solved], [res.y for res in solved]
        self.assertEqual(replays(lp, x, y, 1e-9).tolist(), [True, True])
        self.assertEqual(replays(lp, [x[0], x[1] + 1e-6], y, 1e-9).tolist(), [True, False])
        self.assertEqual(replays(lp, x, [y[0] - 1e-6, y[1]], 1e-9).tolist(), [False, True])


class TestSdp(unittest.TestCase):
    def test_trace_normalized_offdiagonal(self):
        # max <[[0,1],[1,0]], X> with Tr X = 1 is attained at the uniform
        # rank-one projector, value 1
        c = np.array([[0.0, 1.0], [1.0, 0.0]])
        res = sdp_solve(c, NO_EDGES, tol=1e-8)
        self.assertAlmostEqual(res.value, 1.0, places=6)

    def test_pentagon_value(self):
        # max <J, X>, Tr X = 1, X_ij = 0 on the edges of C5
        res = sdp_solve(np.ones((5, 5)), PENTAGON_EDGES, tol=5e-7)
        root5 = math.sqrt(5.0)
        self.assertLessEqual(res.lower, root5 + 5e-7)
        self.assertGreaterEqual(res.upper, root5 - 5e-7)
        self.assertLess(abs(res.value - root5), 5e-7)
        # the primal iterate satisfies the constraints it claims to
        self.assertLess(abs(np.trace(res.x) - 1.0), 1e-5)
        for i, j in zip(*PENTAGON_EDGES):
            self.assertEqual(res.x[i, j], 0.0)
            self.assertEqual(res.x[j, i], 0.0)
        evals = np.linalg.eigvalsh(res.x)
        self.assertGreater(evals[0], -1e-6)
        self.assertIsInstance(res.lower, float)
        self.assertIsInstance(res.upper, float)

    def test_iteration_counts_are_frozen(self):
        # frozen counts: any change to the iteration itself moves them
        res = sdp_solve(np.ones((5, 5)), PENTAGON_EDGES)
        self.assertEqual(res.iterations, 6)
        # prism over C5 with weights 0.2 .. 1.0, optimum 2.7056337642
        # (certified to 1e-10)
        w = np.linspace(0.2, 1.0, 10)
        ring = np.arange(5)
        ii = np.concatenate([ring, ring + 5, ring])
        jj = np.concatenate([(ring + 1) % 5, (ring + 1) % 5 + 5, ring + 5])
        res = sdp_solve(np.sqrt(np.outer(w, w)), (ii, jj))
        self.assertEqual(res.iterations, 8)
        self.assertLess(abs(res.value - 2.7056337642), 2.5e-7)

    def test_certified_bounds_bracket(self):
        res = sdp_solve(np.ones((5, 5)), PENTAGON_EDGES, tol=1e-4)
        self.assertLessEqual(res.lower, res.upper)
        self.assertLessEqual(res.upper - res.lower, 1e-4 + 1e-9)

    def test_degenerate_program_with_large_weights(self):
        # the cube is bipartite, so theta = alpha = 4 and the optimum is far
        # from unique; weight 100 asks for a relative gap near 1e-9, past
        # the point where its Schur complement turns numerically singular
        ring = np.arange(4)
        ii = np.concatenate([ring, ring + 4, ring])
        jj = np.concatenate([(ring + 1) % 4, (ring + 1) % 4 + 4, ring + 4])
        res = sdp_solve(np.full((8, 8), 100.0), (ii, jj))
        self.assertLessEqual(res.upper - res.lower, 5e-7)
        self.assertLess(abs(res.value - 400.0), 2.5e-7)

    def test_iteration_cap_raises_with_bounds(self):
        with self.assertRaises(SdpError) as ctx:
            sdp_solve(np.ones((5, 5)), PENTAGON_EDGES, max_iter=3)
        exc = ctx.exception
        self.assertIn("3 iterations", str(exc))
        self.assertLessEqual(exc.lower, exc.upper)

    def test_breakdown_raises_with_bounds(self):
        # a factorization that fails mid-iteration surfaces as SdpError
        # carrying the certified pair of the starting point
        real = np.linalg.cholesky
        calls = []

        def failing(a):
            calls.append(1)
            if len(calls) > 1:
                raise np.linalg.LinAlgError("injected")
            return real(a)

        with unittest.mock.patch.object(np.linalg, "cholesky", failing):
            with self.assertRaises(SdpError) as ctx:
                sdp_solve(np.ones((5, 5)), PENTAGON_EDGES)
        exc = ctx.exception
        self.assertIn("breakdown", str(exc))
        self.assertTrue(math.isfinite(exc.lower) and math.isfinite(exc.upper))
        self.assertLessEqual(exc.lower, exc.upper)

    def test_duplicate_and_reversed_edges_are_merged(self):
        ii, jj = PENTAGON_EDGES
        res = sdp_solve(np.ones((5, 5)), (np.concatenate([ii, jj]), np.concatenate([jj, ii])))
        self.assertLess(abs(res.value - math.sqrt(5.0)), 2.5e-7)

    def test_input_validation(self):
        with self.assertRaises(ValueError):
            sdp_solve(np.ones((2, 3)), NO_EDGES)
        with self.assertRaises(ValueError):
            sdp_solve(np.ones((3, 3)), ([1], [1]))
        with self.assertRaises(ValueError):
            sdp_solve(np.ones((3, 3)), ([0], [3]))


@st.composite
def _weighted_graphs(draw):
    n = draw(st.integers(1, 10))
    pairs = list(itertools.combinations(range(n), 2))
    keep = draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
    weight = st.one_of(st.just(0.0), st.floats(0.0, 3.0, allow_subnormal=False))
    unit = draw(st.booleans())
    w = np.ones(n) if unit else np.array(draw(st.lists(weight, min_size=n, max_size=n)))
    return n, [p for p, k in zip(pairs, keep) if k], w, unit


def _edge_arrays(edges):
    return tuple(np.array([e[k] for e in edges], dtype=np.intp) for k in (0, 1))


class TestSdpProperties(unittest.TestCase):
    @settings(derandomize=True, database=None, max_examples=100, deadline=None)
    @given(_weighted_graphs())
    def test_random_theta_programs(self, case):
        n, edges, w, unit = case
        res = sdp_solve(np.sqrt(np.outer(w, w)), _edge_arrays(edges))
        self.assertLessEqual(res.upper - res.lower, 5e-7)
        alpha, _ = brute_independence(n, edges, w)
        self.assertLessEqual(alpha, res.upper + 1e-9)
        if unit:
            # theta(G) theta(complement) >= n, on the certified upper bounds
            co = sorted(set(itertools.combinations(range(n), 2)) - set(edges))
            res_co = sdp_solve(np.ones((n, n)), _edge_arrays(co))
            self.assertGreaterEqual(res.upper * res_co.upper, n - 1e-6)

    def test_dense_program_at_the_size_cap(self):
        # G(64, 0.3) with unit weights converges under the default max_iter
        rng = np.random.default_rng(64)
        ii, jj = np.triu_indices(64, 1)
        pick = rng.random(ii.size) < 0.3
        res = sdp_solve(np.ones((64, 64)), (ii[pick], jj[pick]))
        self.assertLessEqual(res.upper - res.lower, 5e-7)


def _on_the_non_edge_side(n, edges):
    # the solver steps the side with strictly fewer constraints
    return n - 1 + n * (n - 1) // 2 - len(edges) < 1 + len(edges)


def _complete(n):
    return list(itertools.combinations(range(n), 2))


class TestSdpNonEdgeSide(unittest.TestCase):
    def test_the_side_with_fewer_constraints_is_stepped(self):
        # C5: 6 against 9; the path P3 ties at 3 and stays on the edge
        # side; K3: 4 against 2; the complement of C7: 15 against 13
        c7_bar = [p for p in _complete(7) if (p[1] - p[0]) % 7 not in (1, 6)]
        cases = [(5, list(zip(*PENTAGON_EDGES)), False), (3, [(0, 1), (1, 2)], False),
                 (3, _complete(3), True), (7, c7_bar, True)]
        for n, edges, non_edge in cases:
            with unittest.mock.patch.object(sdp, "_solve", wraps=sdp._solve) as solve:
                sdp_solve(np.ones((n, n)), _edge_arrays(edges))
            self.assertIs(solve.call_args.args[2], non_edge)

    def test_primal_matrix(self):
        # a dense weighted program on 16 vertices
        rng = np.random.default_rng(16)
        edges = [p for p in _complete(16) if rng.random() < 0.8]
        self.assertTrue(_on_the_non_edge_side(16, edges))
        w = rng.uniform(0.1, 2.0, 16)
        cost = np.sqrt(np.outer(w, w))
        res = sdp_solve(cost, _edge_arrays(edges))
        self.assertLessEqual(res.upper - res.lower, 5e-7)
        self.assertLess(abs(np.trace(res.x) - 1.0), 1e-12)
        for i, j in edges:
            self.assertEqual(res.x[i, j], 0.0)
            self.assertEqual(res.x[j, i], 0.0)
        self.assertGreater(np.linalg.eigvalsh(res.x)[0], -1e-12)
        self.assertAlmostEqual(float((cost * res.x).sum()), res.lower, delta=1e-12)

    def test_complete_graphs(self):
        # theta(K_m, w) = max w; K_1 has no constraint left on this side
        for m in (1, 2, 6):
            self.assertTrue(_on_the_non_edge_side(m, _complete(m)))
            w = np.linspace(0.5, 1.5, m)[::-1]
            res = sdp_solve(np.sqrt(np.outer(w, w)), _edge_arrays(_complete(m)))
            self.assertLessEqual(res.lower, w[0] + 1e-12)
            self.assertGreaterEqual(res.upper, w[0] - 1e-12)
            self.assertLessEqual(res.upper - res.lower, 5e-7)
        self.assertEqual(sdp_solve_many(np.zeros((0, 6, 6)), _edge_arrays(_complete(6))), [])

    @settings(derandomize=True, database=None, max_examples=60, deadline=None)
    @given(_weighted_graphs())
    def test_both_sides_certify_overlapping_intervals(self, case):
        n, edges, w, _ = case
        cost, edge = sdp._prepare(np.sqrt(np.outer(w, w))[None], _edge_arrays(edges))
        (on_edges,), (off_edges,) = (sdp._solve(cost, edge, side, 5e-7, 100) for side in (False, True))
        for res in (on_edges, off_edges):
            self.assertLessEqual(res.upper - res.lower, 5e-7)
        self.assertLessEqual(max(on_edges.lower, off_edges.lower), min(on_edges.upper, off_edges.upper) + 1e-12)


# C5 weights whose programs converge in 6, 6 and 7 iterations
STAGGERED = np.array([[1.0, 1, 0, 0, 0], [1, 1, 1, 1, 1], [5, 1, 1, 1, 1]])


def _stack(weights):
    return np.sqrt(weights[:, :, None] * weights[:, None, :])


@st.composite
def _weighted_stacks(draw):
    n = draw(st.integers(1, 10))
    pairs = list(itertools.combinations(range(n), 2))
    keep = draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
    count = draw(st.integers(1, 6))
    weight = st.one_of(st.just(0.0), st.floats(0.0, 3.0, allow_subnormal=False))
    w = draw(st.lists(st.lists(weight, min_size=n, max_size=n), min_size=count, max_size=count))
    return [p for p, k in zip(pairs, keep) if k], np.array(w)


class TestSdpStack(unittest.TestCase):
    @settings(derandomize=True, database=None, max_examples=100, deadline=None)
    @given(_weighted_stacks())
    def test_stack_matches_separate_solves(self, case):
        edges, w = case
        costs = _stack(w)
        stacked = sdp_solve_many(costs, _edge_arrays(edges))
        self.assertEqual(len(stacked), len(w))
        for cost, res in zip(costs, stacked):
            alone = sdp_solve(cost, _edge_arrays(edges))
            self.assertEqual(res.iterations, alone.iterations)
            self.assertLessEqual(abs(res.lower - alone.lower), 1e-12)
            self.assertLessEqual(abs(res.upper - alone.upper), 1e-12)
            self.assertLessEqual(res.upper - res.lower, 5e-7)

    def test_programs_leave_the_stack_when_certified(self):
        res = sdp_solve_many(_stack(STAGGERED), PENTAGON_EDGES)
        self.assertEqual([r.iterations for r in res], [6, 6, 7])
        self.assertLess(abs(res[1].value - math.sqrt(5.0)), 2.5e-7)

    def test_iteration_cap_raises_with_an_unfinished_program(self):
        # the first two programs finish within the cap; the third, whose
        # optimum is 6, does not
        with self.assertRaises(SdpError) as ctx:
            sdp_solve_many(_stack(STAGGERED), PENTAGON_EDGES, max_iter=6)
        exc = ctx.exception
        self.assertIn("no convergence in 6 iterations", str(exc))
        self.assertGreater(exc.upper - exc.lower, 5e-7)
        self.assertLessEqual(exc.lower, 6.0 + 1e-9)
        self.assertGreaterEqual(exc.upper, 6.0 - 1e-9)

    def test_breakdown_raises_with_an_unfinished_program(self):
        # one Cholesky call certifies the starting point and three run per
        # iteration: the 20th is the first of iteration 7, which only the
        # third program reaches
        real = np.linalg.cholesky
        calls = []

        def failing(a):
            calls.append(1)
            if len(calls) == 20:
                raise np.linalg.LinAlgError("injected")
            return real(a)

        with unittest.mock.patch.object(np.linalg, "cholesky", failing):
            with self.assertRaises(SdpError) as ctx:
                sdp_solve_many(_stack(STAGGERED), PENTAGON_EDGES)
        exc = ctx.exception
        self.assertIn("numerical breakdown after 6 iterations", str(exc))
        self.assertTrue(math.isfinite(exc.lower) and math.isfinite(exc.upper))
        self.assertLessEqual(exc.lower, 6.0 + 1e-9)
        self.assertGreaterEqual(exc.upper, 6.0 - 1e-9)

    def test_stack_validation(self):
        self.assertEqual(sdp_solve_many(np.zeros((0, 3, 3)), NO_EDGES), [])
        for bad in (np.ones((3, 3)), np.ones((2, 3, 4)), np.ones((1, 2, 3, 3))):
            with self.assertRaises(ValueError):
                sdp_solve_many(bad, NO_EDGES)
        with self.assertRaises(ValueError):
            sdp_solve(np.ones((1, 3, 3)), NO_EDGES)
        with self.assertRaises(ValueError):
            sdp_solve_many(np.ones((2, 3, 3)), ([0], [3]))

    def test_non_finite_costs_are_rejected(self):
        for bad in (math.nan, math.inf):
            cost = np.ones((5, 5))
            cost[1, 2] = cost[2, 1] = bad
            with self.assertRaisesRegex(ValueError, "finite"):
                sdp_solve(cost, PENTAGON_EDGES)
            with self.assertRaisesRegex(ValueError, "finite"):
                sdp_solve_many(np.stack([np.ones((5, 5)), cost]), PENTAGON_EDGES)


@st.composite
def _near_singular_matrices(draw):
    # a Gram matrix of rank r <= m (a random symmetric matrix when r = 0),
    # scaled and shifted by delta I with delta from 0 to well above the
    # Rump shift
    m = draw(st.integers(1, 8))
    r = draw(st.integers(0, m))
    seed = draw(st.integers(0, 2**32 - 1))
    scale = 10.0 ** draw(st.integers(-6, 6))
    delta = draw(st.sampled_from([0.0, 1e-18, 1e-16, 1e-15, 3e-15, 1e-14, 1e-13, 1e-10, 1e-6]))
    rng = np.random.default_rng(seed)
    if r:
        f = rng.normal(size=(m, r))
        a = f @ f.T
    else:
        a = rng.normal(size=(m, m))
        a = a + a.T
    return scale * (a + delta * np.eye(m))


class TestPdProof(unittest.TestCase):
    @settings(derandomize=True, database=None, max_examples=300, deadline=None)
    @given(_near_singular_matrices())
    def test_shifted_cholesky_proves_only_pd_matrices(self, a):
        if sdp._proved_pd(a[None]):
            self.assertTrue(exact_is_pd(a))

    def test_proofs_on_converged_and_rank_deficient_matrices(self):
        # the certified pentagon X, the same matrix rebuilt with its smallest
        # eigenvalue set to 1e-17 (far below the Rump shift, so it is not
        # proved), and a rank-one matrix with diagonal shifts below and above
        # the Rump shift
        x = sdp_solve(np.ones((5, 5)), PENTAGON_EDGES).x
        w, v = np.linalg.eigh(x)
        self.assertTrue(sdp._proved_pd(x[None]))
        self.assertTrue(exact_is_pd(x))
        flat = (v * np.concatenate(([1e-17], w[1:]))) @ v.T
        self.assertFalse(sdp._proved_pd(flat[None]))
        u = np.arange(1.0, 7.0)
        shift = float(sdp._rump_shift(np.outer(u, u)))
        proved = []
        for delta in (0.0, shift / 4, 4 * shift, 1e-12):
            a = np.outer(u, u) + delta * np.eye(6)
            proved.append(sdp._proved_pd(a[None]))
            if proved[-1]:
                self.assertTrue(exact_is_pd(a))
        self.assertEqual(proved, [False, False, True, True])
        # one stacked factorization: a single matrix that is not PD fails
        # the whole stack
        self.assertFalse(sdp._proved_pd(np.array([x, np.outer(u, u)[:5, :5]])))

    def test_failing_cholesky_falls_back_to_eigvalsh(self):
        # a shift larger than every eigenvalue makes the proof's
        # factorization fail, so certify reads eigvalsh; on these programs
        # eigvalsh finds every certified iterate PD, so the certified numbers
        # must equal those of the Cholesky proof
        ring = np.arange(5)
        prism = (np.concatenate([ring, ring + 5, ring]), np.concatenate([(ring + 1) % 5, (ring + 1) % 5 + 5, ring + 5]))
        w = np.linspace(0.2, 1.0, 10)
        cases = [(np.ones((1, 5, 5)), PENTAGON_EDGES), (np.sqrt(np.outer(w, w))[None], prism),
                 (_stack(STAGGERED), PENTAGON_EDGES)]
        for costs, edges in cases:
            proved = sdp_solve_many(costs, edges)
            with unittest.mock.patch.object(sdp, "_rump_shift", lambda a: 2.0 * a.trace(axis1=-2, axis2=-1)), \
                    unittest.mock.patch.object(np.linalg, "eigvalsh", wraps=np.linalg.eigvalsh) as eigvalsh:
                fallback = sdp_solve_many(costs, edges)
            # two step-length calls per iteration, one certify call per
            # certified point, the start included
            iterations = max(r.iterations for r in fallback)
            self.assertEqual(eigvalsh.call_count, 3 * iterations + 1)
            for p, q in zip(proved, fallback):
                self.assertEqual((p.iterations, p.lower, p.upper), (q.iterations, q.lower, q.upper))
                np.testing.assert_array_equal(p.x, q.x)


class TestComplexHelpers(unittest.TestCase):
    def test_pauli_algebra(self):
        sx = np.array([[0, 1], [1, 0]], dtype=complex)
        sy = np.array([[0, -1j], [1j, 0]], dtype=complex)
        self.assertTrue(is_hermitian(sx))
        self.assertTrue(is_hermitian(sy))
        self.assertFalse(is_hermitian(sx + 1j * np.eye(2)))
        proj = (np.eye(2) + sx) / 2
        self.assertTrue(is_projector(proj))
        self.assertFalse(is_projector(sx))
        self.assertAlmostEqual(np.trace(sx @ sx).real, 2.0)
        big = tensor_product(sx, sy)
        self.assertEqual(big.shape, (4, 4))
        np.testing.assert_allclose(big @ big, np.eye(4), atol=1e-12)


if __name__ == "__main__":
    unittest.main()
