"""Independence number, fractional packing, the semidefinite relaxation,
and the three convex-body membership tests."""

import math
import random
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from exgraph import acceptance, boxes
from exgraph import bounds as bd
from exgraph import excl
from exgraph import graph as gr
from exgraph.numkernel import LinearProgram, lp_solve_many
from oracles import (
    brute_independence,
    brute_maximal_cliques,
    chain_points_reference,
    cycle_alpha,
    cycle_alpha_star,
    cycle_theta,
    local_certificate_holds,
    random_graph,
    stab_certificate_holds,
)

ROOT5 = math.sqrt(5.0)


def test_independence_number_matches_brute_force():
    rng = random.Random(101)
    for _ in range(20):
        n = rng.randint(2, 12)
        edges = random_graph(rng, n, 0.4)
        g = gr.from_edges(n, edges)
        alpha, witness = bd.independence_number(g)
        expect, _ = brute_independence(n, edges)
        assert alpha == expect
        assert len(witness) == alpha
        assert all(not g.has_edge(u, v) for u in witness for v in witness if u != v)


def test_maximal_cliques_match_brute_force():
    rng = random.Random(17)
    for _ in range(15):
        n = rng.randint(2, 10)
        edges = random_graph(rng, n, 0.5)
        g = gr.from_edges(n, edges)
        got = sorted(tuple(sorted(c)) for c in bd.maximal_cliques(g))
        assert got == brute_maximal_cliques(n, edges)


@pytest.mark.parametrize("n", [4, 5, 6, 7, 8, 9, 11])
def test_cycle_invariants_closed_form(n):
    g = gr.cycle_graph(n)
    alpha, _ = bd.independence_number(g)
    assert alpha == cycle_alpha(n)
    assert bd.lovasz_theta(g) == pytest.approx(cycle_theta(n), abs=1e-6)
    assert bd.fractional_packing(g) == pytest.approx(cycle_alpha_star(n), abs=1e-9)


def test_frozen_named_graphs():
    pet = gr.petersen_graph()
    assert bd.independence_number(pet)[0] == 4
    assert bd.lovasz_theta(pet) == pytest.approx(4.0, abs=1e-5)
    assert bd.fractional_packing(pet) == pytest.approx(5.0, abs=1e-9)

    j52 = gr.johnson_graph(5, 2)
    assert bd.independence_number(j52)[0] == 2
    assert bd.fractional_packing(j52) == pytest.approx(2.5, abs=1e-9)
    assert bd.lovasz_theta(j52) == pytest.approx(2.5, abs=1e-5)

    assert bd.fractional_packing(gr.complete_graph(7)) == pytest.approx(1.0, abs=1e-9)
    assert bd.lovasz_theta(gr.empty_graph(6)) == pytest.approx(6.0, abs=1e-5)


@pytest.mark.parametrize("a, b, value", [(5, 7, 8.75), (7, 7, 12.25)])
def test_alpha_star_of_large_conormal_products(a, b, value):
    # vertex-transitive, so alpha* = n / omega; C5 x C7 has 1,015 maximal
    # cliques and C7 x C7 has 1,715
    g = excl.conormal_product(gr.cycle_graph(a), gr.cycle_graph(b))
    assert bd.fractional_packing(g) == pytest.approx(value, abs=1e-9)


def test_fractional_packing_replays_both_sides(monkeypatch):
    solve = bd.lp_solve

    def skewed(lp):
        res = solve(lp)
        res.y = res.y + 1e-6  # the packing, read off the cover's duals
        return res

    monkeypatch.setattr(bd, "lp_solve", skewed)
    with pytest.raises(RuntimeError):
        # the end vertices of P5 lie in one maximum clique and the inner
        # ones in two, so alpha* needs the cover LP
        bd.fractional_packing(gr.path_graph(5))


def _cover_lp_value(g) -> float:
    cliques = bd.maximal_cliques(g)
    a = np.zeros((g.n, len(cliques)))
    for col, q in enumerate(cliques):
        a[list(q), col] = 1.0
    res = bd.lp_solve(bd.LinearProgram(c=np.ones(len(cliques)), a=a, senses=(">=",) * g.n, b=np.ones(g.n)))
    assert res.status == "optimal"
    return float(res.value)


_C = gr.cycle_graph
_UNIFORM_MAXIMUM_CLIQUES = {
    "Petersen": gr.petersen_graph,
    "J(5,2)": lambda: gr.johnson_graph(5, 2),
    "Ci13(1,5)": lambda: gr.circulant_graph(13, [1, 5]),
    "C5xC5": lambda: excl.conormal_product(_C(5), _C(5)),
    "C5xC7": lambda: excl.conormal_product(_C(5), _C(7)),
    "C7xC7": lambda: excl.conormal_product(_C(7), _C(7)),
}


@pytest.mark.parametrize("name", sorted(_UNIFORM_MAXIMUM_CLIQUES))
def test_fractional_packing_needs_no_lp_when_maximum_cliques_cover_evenly(monkeypatch, name):
    g = _UNIFORM_MAXIMUM_CLIQUES[name]()
    omega = max(len(q) for q in bd.maximal_cliques(g))
    expect = _cover_lp_value(g)

    def refuse(lp):
        raise AssertionError("solved an LP")

    monkeypatch.setattr(bd, "lp_solve", refuse)
    value = bd.fractional_packing(g)
    assert value == g.n / omega
    assert value == pytest.approx(expect, abs=1e-12)


@st.composite
def _small_graphs(draw):
    n = draw(st.integers(1, 14))
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    p = draw(st.sampled_from([0.2, 0.5, 0.8]))
    keep = draw(st.lists(st.floats(0.0, 1.0), min_size=len(pairs), max_size=len(pairs)))
    return gr.from_edges(n, [e for e, u in zip(pairs, keep) if u < p])


@settings(derandomize=True, database=None, max_examples=150, deadline=None)
@given(_small_graphs())
def test_fractional_packing_equals_the_cover_lp(g):
    assert bd.fractional_packing(g) == pytest.approx(_cover_lp_value(g), abs=1e-12)


@st.composite
def _graphs_up_to_8(draw):
    n = draw(st.integers(1, 8))
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    keep = draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
    return gr.from_edges(n, [e for e, k in zip(pairs, keep) if k])


# each theta is certified to an interval of width THETA_TOL around its
# midpoint, so a relation among three midpoints holds within 1.5 THETA_TOL
THETA_TOL = 5e-7


@settings(derandomize=True, database=None, max_examples=60, deadline=None)
@given(_graphs_up_to_8())
def test_theta_is_at_most_alpha_star(g):
    assert bd.lovasz_theta(g) <= bd.fractional_packing(g) + THETA_TOL / 2


@settings(derandomize=True, database=None, max_examples=40, deadline=None)
@given(_graphs_up_to_8(), _graphs_up_to_8())
def test_theta_of_a_disjoint_union_is_the_sum(g, h):
    got = bd.lovasz_theta(gr.disjoint_union(g, h))
    assert got == pytest.approx(bd.lovasz_theta(g) + bd.lovasz_theta(h), abs=1.5 * THETA_TOL)


@settings(derandomize=True, database=None, max_examples=40, deadline=None)
@given(_graphs_up_to_8(), _graphs_up_to_8())
def test_theta_of_a_cosum_is_the_max(g, h):
    got = bd.lovasz_theta(gr.direct_cosum(g, h))
    assert got == pytest.approx(max(bd.lovasz_theta(g), bd.lovasz_theta(h)), abs=THETA_TOL)


@settings(derandomize=True, database=None, max_examples=40, deadline=None)
@given(_graphs_up_to_8())
def test_theta_of_a_duplication_is_twice_theta(g):
    assert bd.lovasz_theta(gr.duplication(g)) == pytest.approx(2 * bd.lovasz_theta(g), abs=1.5 * THETA_TOL)


def test_subset_intersection_family_values():
    g = gr.subset_intersection_graph(3, 1)
    assert g.n == 20
    assert bd.independence_number(g)[0] == 4
    assert bd.lovasz_theta(g) == pytest.approx(5.0, abs=1e-5)


def test_sandwich_on_random_graphs():
    rng = random.Random(29)
    for _ in range(8):
        n = rng.randint(3, 10)
        g = gr.from_edges(n, random_graph(rng, n, 0.45))
        rep = bd.bounds_report(g)
        assert rep.alpha <= rep.theta + 1e-5
        assert rep.theta <= rep.alpha_star + 1e-5
        assert rep.ratio == pytest.approx(rep.theta / rep.alpha)
        assert len(rep.witness_independent_set) == rep.alpha


def test_circulant_oracle_agrees_with_sdp():
    specs = [(5, (1,)), (7, (1,)), (8, (1, 4)), (10, (1, 2)), (10, (2, 5)), (9, (1, 3)), (12, (1, 6))]
    for n, offs in specs:
        lp_value = bd.theta_circulant_oracle(n, offs)
        sdp_value = bd.lovasz_theta_matrix(gr.circulant_graph(n, offs))[0]
        assert abs(lp_value - sdp_value) < 1e-6, (n, offs)


def _on_the_non_edge_side(g):
    # the solver steps the side with strictly fewer constraints
    non_edges = g.n * (g.n - 1) // 2 - g.edge_count()
    return g.n - 1 + non_edges < 1 + g.edge_count()


def _non_edge_theta(g):
    """Certified theta interval of g, solved on the non-edge side."""
    assert _on_the_non_edge_side(g)
    res = bd.sdp_solve(np.ones((g.n, g.n)), bd._edge_arrays(g.n, g.rows))
    assert res.upper - res.lower <= 5e-7
    return res


@pytest.mark.parametrize("a, b", [(3, 7), (3, 9), (4, 4), (4, 5), (5, 5), (5, 7)])
def test_theta_of_conormal_products_on_the_non_edge_side(a, b):
    res = _non_edge_theta(excl.conormal_product(gr.cycle_graph(a), gr.cycle_graph(b)))
    value = cycle_theta(a) * cycle_theta(b)
    assert res.lower <= value + 1e-12 and value - 1e-12 <= res.upper


def test_theta_of_odd_cycle_complements_on_the_non_edge_side():
    for n in range(7, 64, 2):
        res = _non_edge_theta(gr.complement(gr.cycle_graph(n)))
        value = n / cycle_theta(n)
        assert res.lower <= value + 1e-12 and value - 1e-12 <= res.upper, n


def test_dense_circulants_on_the_non_edge_side_match_the_lp_oracle():
    specs = [(n, offs) for n, offs in acceptance._CIRCULANT_SPECS
             if _on_the_non_edge_side(gr.circulant_graph(n, offs))]
    assert len(specs) == 7
    specs += [(33, tuple(range(1, 13))), (40, (1, 2, 3, 4, 5, 7, 8, 11, 13, 14, 15, 17, 19)), (64, tuple(range(2, 26)))]
    for n, offs in specs:
        res = _non_edge_theta(gr.circulant_graph(n, offs))
        lp_value = bd.theta_circulant_oracle(n, offs)
        assert abs(res.value - lp_value) <= 5e-7 / 2 + 1e-12, (n, offs)


def test_violation_witness_of_a_sparse_graph_on_the_non_edge_side():
    # p is in QSTAB(C7) but outside TH(C7): theta of the complement at p is
    # 1 + 1/cos(pi/7) times 1/2, about 1.055
    c7 = gr.cycle_graph(7)
    _non_edge_theta(gr.complement(c7))
    p = np.full(7, 0.5)
    theta, pbar = excl.eprinciple_violation_witness(c7, p)
    assert theta == pytest.approx(3.5 / cycle_theta(7), abs=5e-7)
    assert float(p @ pbar) > 1.0
    assert bd.th_membership(gr.complement(c7), pbar, tol=1e-4)[0]


def test_circulant_theta_at_the_size_cap():
    n, offs = gr.MAX_VERTICES, (1, 2, 5)
    sdp_value = bd.lovasz_theta_matrix(gr.circulant_graph(n, offs))[0]
    assert abs(sdp_value - bd.theta_circulant_oracle(n, offs)) < 1e-6


def _relabelled(g, seed):
    perm = list(range(g.n))
    random.Random(seed).shuffle(perm)
    return gr.from_edges(g.n, [(perm[i], perm[j]) for i, j in g.edges()])


_CAYLEY_TABLE = [
    ("cycle9", lambda: gr.cycle_graph(9), (9, 1)),
    ("cycle9-from-edges", lambda: gr.from_edges(9, [(i, (i + 1) % 9) for i in range(9)]), (9, 1)),
    *[(f"C{a}xC{b}", lambda a=a, b=b: excl.conormal_product(gr.cycle_graph(a), gr.cycle_graph(b)), (a, b))
      for a, b in [(3, 7), (3, 9), (4, 4), (4, 5), (5, 5), (5, 7)]],
    ("prism7", lambda: gr.prism_graph(7), (2, 7)),
    ("moebius16", lambda: gr.moebius_ladder(16), (16, 1)),
    ("circulant-complement", lambda: gr.complement(gr.circulant_graph(11, (1, 3))), (11, 1)),
    ("K6", lambda: gr.complete_graph(6), (6, 1)),
    ("edgeless7", lambda: gr.empty_graph(7), (7, 1)),
    ("path8", lambda: gr.path_graph(8), None),
    # K6 minus the matching 05, 12, 34: rotating the whole row by 2 is an
    # automorphism, swapping inside the 2-blocks is not
    ("octahedron-rotated-by-2", lambda: gr.complement(gr.from_edges(6, [(0, 5), (1, 2), (3, 4)])), None),
    ("petersen", gr.petersen_graph, None),
    ("J(6,2)", lambda: gr.johnson_graph(6, 2), None),
    ("G(20,0.3)", lambda: gr.from_edges(20, random_graph(random.Random(5), 20, 0.3)), None),
    ("C5xC5-relabelled", lambda: _relabelled(excl.conormal_product(gr.cycle_graph(5), gr.cycle_graph(5)), 3), None),
]


@pytest.mark.parametrize("build, group", [(b, grp) for _, b, grp in _CAYLEY_TABLE],
                         ids=[name for name, _, _ in _CAYLEY_TABLE])
def test_cayley_group_of_the_own_labelling(build, group):
    g = build()
    assert bd._cayley_group(g.n, g.rows) == group


@st.composite
def _abelian_cayley_rows(draw, order=24):
    a = draw(st.integers(1, order))
    b = draw(st.integers(1, order // a))
    n = a * b
    neg = [(-(i // b) % a) * b + (-i % b) for i in range(n)]
    conn = 0
    for i in range(1, n):
        if i <= neg[i] and draw(st.booleans()):
            conn |= 1 << i | 1 << neg[i]
    # row of (u, v) is the connection set translated by (u, v)
    rows = tuple(
        sum(1 << (((u + s // b) % a) * b + (v + s) % b) for s in range(n) if conn >> s & 1)
        for u in range(a) for v in range(b)
    )
    return n, rows


@settings(derandomize=True, database=None, max_examples=60, deadline=None)
@given(_abelian_cayley_rows())
def test_character_lp_lies_in_the_certified_sdp_interval(case):
    n, rows = case
    group = bd._cayley_group(n, rows)
    assert group is not None
    value = bd._theta_characters(n, rows, *group)
    res = bd.sdp_solve(np.ones((n, n)), bd._edge_arrays(n, rows))
    assert res.lower - bd._REPLAY_TOL <= value <= res.upper + bd._REPLAY_TOL


def test_cayley_bounds_need_no_sdp(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("theta of a Cayley graph went to the SDP")

    monkeypatch.setattr(bd, "sdp_solve", refuse)
    bd._theta_cached.cache_clear()
    c8 = gr.cycle_graph(8)
    assert bd.bounds_report(excl.conormal_product(c8, c8)).theta == pytest.approx(16.0, abs=1e-9)
    assert bd.bounds_report(gr.prism_graph(32)).theta == pytest.approx(32.0, abs=1e-9)


@st.composite
def _abelian_cayley_graphs(draw):
    """Cayley graphs of Z_a x Z_b with ab <= 30, in their own labelling."""
    kind = draw(st.sampled_from(["circulant", "prism", "moebius", "conormal", "connection set"]))
    if kind == "circulant":
        n = draw(st.integers(2, 30))
        return gr.circulant_graph(n, draw(st.sets(st.integers(1, n // 2), min_size=1)))
    if kind == "prism":
        return gr.prism_graph(draw(st.integers(3, 15)))
    if kind == "moebius":
        return gr.moebius_ladder(2 * draw(st.integers(2, 15)))
    if kind == "conormal":
        a = draw(st.integers(3, 10))
        b = draw(st.integers(3, 30 // a))
        return excl.conormal_product(gr.circulant_graph(a, draw(st.sets(st.integers(1, a // 2), min_size=1))),
                                     gr.circulant_graph(b, draw(st.sets(st.integers(1, b // 2), min_size=1))))
    n, rows = draw(_abelian_cayley_rows(order=30))
    return gr.Graph(n, rows)


@settings(derandomize=True, database=None, max_examples=80, deadline=None)
@given(_abelian_cayley_graphs())
def test_alpha_star_from_translates_equals_the_listed_cliques(g):
    assert bd._cayley_group(g.n, g.rows) is not None
    value = bd.fractional_packing(g)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(bd, "_cayley_group", lambda n, rows: None)
        listed = bd.fractional_packing(g)
    assert value == listed


@pytest.mark.parametrize("build", [
    lambda: excl.conormal_product(gr.cycle_graph(8), gr.cycle_graph(8)),
    lambda: gr.prism_graph(32),
    lambda: gr.moebius_ladder(40),
    lambda: gr.circulant_graph(64, range(1, 32)),  # 2^32 maximal cliques
    lambda: gr.circulant_graph(13, (1, 5)),
], ids=["C8xC8", "prism32", "moebius40", "cocktail-party64", "Ci13(1,5)"])
def test_cayley_alpha_star_lists_no_cliques(monkeypatch, build):
    def refuse(*args, **kwargs):
        raise AssertionError("alpha* of a Cayley graph listed cliques or solved an LP")

    g = build()
    omega = bd._max_clique(g.rows, (1 << g.n) - 1)[0]
    monkeypatch.setattr(bd, "maximal_cliques", refuse)
    monkeypatch.setattr(bd, "lp_solve", refuse)
    assert bd.fractional_packing(g) == g.n / omega


@pytest.mark.parametrize("forged, message", [
    (lambda size, mask: (size, 1 << 2), "not a clique"),  # {0, 2} is no edge of C9
    (lambda size, mask: (size + 1, mask), "cover every vertex"),
], ids=["not-a-clique", "wrong-coverage"])
def test_cayley_alpha_star_checks_its_clique_and_coverage(monkeypatch, forged, message):
    real = bd._max_clique
    monkeypatch.setattr(bd, "_max_clique", lambda rows, within: forged(*real(rows, within)))
    with pytest.raises(RuntimeError, match=message):
        bd.fractional_packing(gr.cycle_graph(9))


def _random_tree(seed, n):
    rng = random.Random(seed)
    return gr.from_edges(n, [(v, rng.randrange(v)) for v in range(1, n)])


def _random_bipartite(seed, n):
    rng = random.Random(seed)
    return gr.from_edges(n, [(u, v) for u in range(n // 2) for v in range(n // 2, n) if rng.random() < 0.4])


def _random_chordal(seed, n):
    # each new vertex joins a clique of the earlier ones, so the reverse of
    # the build order is a perfect elimination ordering
    rng = random.Random(seed)
    adj = [set() for _ in range(n)]
    for v in range(1, n):
        u = rng.randrange(v)
        clique = {u}
        for w in rng.sample(sorted(adj[u]), len(adj[u])):
            if rng.random() < 0.7 and clique <= adj[w]:
                clique.add(w)
        for w in clique:
            adj[v].add(w)
            adj[w].add(v)
    return gr.from_edges(n, [(v, w) for v in range(n) for w in adj[v] if v < w])


_PERFECT = {
    **{f"P{n}": lambda n=n: gr.path_graph(n) for n in (1, 2, 5, 9, 16)},
    **{f"tree{s}": lambda s=s: _random_tree(s, 8 + 2 * s) for s in range(4)},
    **{f"bipartite{s}": lambda s=s: _random_bipartite(s, 8 + 2 * s) for s in range(4)},
    **{f"chordal{s}": lambda s=s: _random_chordal(s, 8 + 2 * s) for s in range(4)},
}


@pytest.mark.parametrize("name", sorted(_PERFECT))
def test_perfect_graphs_pin_theta_without_a_solve(monkeypatch, name):
    g = _PERFECT[name]()
    reference, _ = bd.lovasz_theta_matrix(g)

    def refuse(*args, **kwargs):
        raise AssertionError("theta of a graph with alpha* = alpha was solved")

    monkeypatch.setattr(bd, "sdp_solve", refuse)
    monkeypatch.setattr(bd, "lovasz_theta", refuse)
    rep = bd.bounds_report(g)
    assert rep.alpha_star - rep.alpha <= bd._THETA_TOL / 2
    assert rep.theta == float(rep.alpha) and rep.ratio == 1.0
    assert abs(rep.theta - reference) <= bd._THETA_TOL / 2


@pytest.mark.parametrize("build", [
    lambda: gr.cycle_graph(5),
    gr.petersen_graph,
    lambda: gr.from_edges(22, random_graph(random.Random(3), 22, 0.3)),
], ids=["C5", "Petersen", "G(22,0.3)"])
def test_theta_is_solved_when_alpha_star_exceeds_alpha(monkeypatch, build):
    g = build()
    expect = bd.lovasz_theta(g)  # bounds_report's theta at every alpha < alpha*
    calls = []
    real = bd.lovasz_theta
    monkeypatch.setattr(bd, "lovasz_theta", lambda h, **kwargs: calls.append(h) or real(h, **kwargs))
    rep = bd.bounds_report(g)
    assert rep.alpha < rep.alpha_star and calls == [g]
    assert rep.theta == expect and rep.ratio == expect / rep.alpha


def _per_offset_circulant_lp(n, offsets):
    """The LP that theta_circulant_oracle built for itself before it called
    the character LP builder: one column per free offset j <= n/2, one row
    per frequency m <= n/2."""
    half = n // 2
    free = [j for j in range(1, half + 1) if j not in set(offsets)]
    if not free:
        return 1.0
    mult = np.array([1.0 if 2 * j == n else 2.0 for j in free])
    coef = np.array([[float((-1) ** m) if 2 * j == n else 2.0 * math.cos(2.0 * math.pi * j * m / n)
                      for j in free] for m in range(half + 1)])
    res = bd.lp_solve(bd.LinearProgram(c=-n * mult, a=coef, senses=(">=",) * (half + 1),
                                       b=(coef.sum(1) - 1.0) / n))
    return 1.0 - float(res.value) - float(mult.sum())


def test_circulant_oracle_matches_the_per_offset_lp():
    for n, offs in acceptance._CIRCULANT_SPECS:
        assert abs(bd.theta_circulant_oracle(n, offs) - _per_offset_circulant_lp(n, offs)) <= 1e-12, (n, offs)


def test_weighted_theta_scaling_and_special_cases():
    g = gr.cycle_graph(5)
    w = (0.3, 1.0, 0.7, 0.2, 0.9)
    base = bd.lovasz_theta(g, weights=w)
    scaled = bd.lovasz_theta(g, weights=tuple(2.5 * x for x in w))
    assert scaled == pytest.approx(2.5 * base, rel=2e-5)
    assert bd.lovasz_theta(g, weights=(1.0,) * 5) == pytest.approx(ROOT5, abs=1e-6)
    # complete graph: the weighted value is the largest weight
    k4 = gr.complete_graph(4)
    assert bd.lovasz_theta(k4, weights=(0.2, 1.4, 0.9, 0.1)) == pytest.approx(1.4, abs=1e-5)
    # empty graph: the sum
    e3 = gr.empty_graph(3)
    assert bd.lovasz_theta(e3, weights=(0.2, 0.3, 0.4)) == pytest.approx(0.9, abs=1e-5)


def test_weighted_theta_monotone_in_weights():
    g = gr.cycle_graph(7)
    rng = np.random.default_rng(4)
    w = rng.uniform(0.1, 1.0, size=7)
    bigger = w + rng.uniform(0.0, 0.5, size=7)
    assert bd.lovasz_theta(g, weights=tuple(w)) <= bd.lovasz_theta(g, weights=tuple(bigger)) + 2e-6


def test_weight_validation():
    g = gr.cycle_graph(5)
    with pytest.raises(ValueError):
        bd.lovasz_theta(g, weights=(1.0, -0.2, 1.0, 1.0, 1.0))
    with pytest.raises(ValueError):
        bd.lovasz_theta(g, weights=(1.0, 1.0))


@pytest.mark.parametrize(
    "solve",
    [
        lambda g, w: bd.lovasz_theta(g, weights=w),
        lambda g, w: bd.lovasz_theta_matrix(g, weights=w),
        excl.eprinciple_violation_witness,
    ],
    ids=["theta", "theta-matrix", "violation-witness"],
)
@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_non_finite_weights_are_rejected_before_the_sdp(monkeypatch, solve, bad):
    def refuse(*args, **kwargs):
        raise AssertionError("a non-finite weight reached the SDP")

    monkeypatch.setattr(bd, "sdp_solve", refuse)
    with pytest.raises(ValueError, match="finite"):
        solve(gr.cycle_graph(5), [1.0, 1.0, bad, 1.0, 1.0])


def test_theta_memo_is_bounded():
    # membership sweeps key the memo by weight tuples, so it must not grow
    # without limit; the acceptance battery memoizes about 570 programs
    maxsize = bd._theta_cached.cache_info().maxsize
    assert maxsize is not None
    assert maxsize >= 1024


def test_theta_matrix_is_a_valid_primal_point():
    g = gr.cycle_graph(5)
    value, x = bd.lovasz_theta_matrix(g)
    assert value == pytest.approx(ROOT5, abs=1e-6)
    assert abs(np.trace(x) - 1.0) < 1e-5
    assert np.linalg.eigvalsh(x)[0] > -1e-6
    for i, j in g.edges():
        assert abs(x[i, j]) < 1e-4


def test_stab_membership_accepts_indicators_and_mixtures():
    g = gr.cycle_graph(5)
    ind = np.zeros(5)
    ind[[0, 2]] = 1.0
    ok, cert = bd.stab_membership(g, ind)
    assert ok
    assert sum(cert["weights"].values()) == pytest.approx(1.0, abs=1e-7)
    mix = 0.5 * ind + 0.5 * np.array([0.0, 1.0, 0.0, 0.0, 1.0])
    ok, cert = bd.stab_membership(g, mix)
    assert ok
    # reconstruct the point from the returned decomposition
    rebuilt = np.zeros(5)
    for members, weight in cert["weights"].items():
        for v in members:
            rebuilt[v] += weight
    np.testing.assert_allclose(rebuilt, mix, atol=1e-7)


def test_stab_separation_certificate_is_valid():
    g = gr.cycle_graph(5)
    p = np.full(5, 0.6)
    ok, cert = bd.stab_membership(g, p)
    assert not ok
    a = np.array(cert["a"])
    beta = cert["beta"]
    assert float(a @ p) > beta + 1e-9
    # the functional must hold on every independent set of the oracle
    _, _ = brute_independence(5, g.edges())
    for mask in range(1 << 5):
        members = [v for v in range(5) if mask >> v & 1]
        if any(g.has_edge(u, v) for u in members for v in members if u < v):
            continue
        assert sum(a[v] for v in members) <= beta + 1e-7


def test_stab_certificate_of_the_pentagon_is_frozen():
    ok, cert = bd.stab_membership(gr.cycle_graph(5), np.full(5, 0.6))
    assert not ok
    assert cert == {"a": [1.0] * 5, "beta": 2.0, "margin": 1.0}


def test_stab_separation_of_a_c15_point():
    # 15 * 0.48 = 7.2 exceeds alpha(C15) = 7 by the margin 0.2
    p = np.full(15, 0.48)
    ok, cert = bd.stab_membership(gr.cycle_graph(15), p)
    assert not ok
    assert cert["margin"] == pytest.approx(0.2, abs=1e-9)
    a = np.array(cert["a"])
    assert float(a @ p) - cert["beta"] == pytest.approx(cert["margin"], abs=1e-12)
    masks = np.arange(1 << 15)
    ring = ((masks << 1) | (masks >> 14)) & 0x7FFF
    chi = (masks[masks & ring == 0][:, None] >> np.arange(15)) & 1
    assert chi.shape[0] == 1364
    assert np.max(chi @ a) <= cert["beta"] + 1e-9


def test_stab_columns_reach_the_top_vertex_bit(monkeypatch):
    # the complement of C64 has 129 independent sets; the ones holding
    # vertex 63 have mask bit 63 set
    g = gr.complement(gr.cycle_graph(64))
    masks = bd._independent_set_masks(g)
    seen = []
    hull = bd.hull_membership_many

    def capture(vertices, points):
        seen.append(vertices)
        return hull(vertices, points)

    monkeypatch.setattr(bd, "hull_membership_many", capture)
    assert bd.stab_membership(g, np.full(64, 0.01))[0]
    assert np.array_equal(seen[0], np.array([[m >> v & 1 for m in masks] for v in range(64)], dtype=float))


def test_stab_membership_past_twenty_vertices():
    # the complement of C40 has 81 independent sets: the empty set, the 40
    # vertices and the 40 edges of C40
    g = gr.complement(gr.cycle_graph(40))
    assert len(bd._independent_set_masks(g)) == 81
    p = np.linspace(0.01, 0.02, 40)
    ok, cert = bd.stab_membership(g, p)
    assert ok
    rebuilt = np.zeros(40)
    for members, weight in cert["weights"].items():
        assert weight > 0
        rebuilt[list(members)] += weight
    np.testing.assert_allclose(rebuilt, p, atol=1e-9)
    assert sum(cert["weights"].values()) <= 1 + 1e-9


def test_th_membership_boundary_cases():
    g = gr.cycle_graph(5)
    inside, theta = bd.th_membership(g, np.full(5, 1.0 / ROOT5))
    assert inside
    assert theta == pytest.approx(1.0, abs=1e-5)
    outside, theta = bd.th_membership(g, np.full(5, 0.5))
    assert not outside
    assert theta == pytest.approx(ROOT5 / 2, abs=1e-5)
    neg, theta = bd.th_membership(g, [0.2, -0.1, 0.2, 0.2, 0.2])
    assert not neg and theta is None


def test_th_membership_many_matches_the_scalar_route_on_criterion_13():
    # the 500 points criterion 13 draws, in its order
    rng = np.random.default_rng(2024)
    for _, build in acceptance._SAMPLING_CORPUS:
        g = build()
        points = acceptance._chain_points(g, rng)
        for p, (inside, theta) in zip(points, bd.th_membership_many(g, points)):
            want_inside, want_theta = bd.th_membership(g, p)
            assert inside == want_inside
            assert abs(theta - want_theta) <= 1e-12


def _criterion_13_points():
    """(name, graph, points) for the 500 points criterion 13 draws, in its
    order."""
    rng = np.random.default_rng(2024)
    for name, build in acceptance._SAMPLING_CORPUS:
        g = build()
        yield name, g, acceptance._chain_points(g, rng)


def test_chain_points_are_the_per_point_draws():
    rng, ref = np.random.default_rng(2024), np.random.default_rng(2024)
    for _, build in acceptance._SAMPLING_CORPUS:
        g = build()
        got = acceptance._chain_points(g, rng)
        want = chain_points_reference(bd.maximal_cliques(g), g.n, ref)
        assert got.tobytes() == np.array(want).tobytes()


def test_stab_and_qstab_stacks_equal_one_point_at_a_time_on_criterion_13():
    for _, g, points in _criterion_13_points():
        assert [repr(v) for v in bd.stab_membership_many(g, points)] == [repr(bd.stab_membership(g, p)) for p in points]
        got = bd.qstab_membership_many(g, points, tol=1e-6)
        assert [repr(v) for v in got] == [repr(bd.qstab_membership(g, p, tol=1e-6)) for p in points]


def test_criterion_13_verdict_counts():
    inside = {"K3": 82, "P3": 62, "C4": 68, "C5": 67, "C7": 78}
    for name, g, points in _criterion_13_points():
        stab = sum(v for v, _ in bd.stab_membership_many(g, points))
        th = sum(v for v, _ in bd.th_membership_many(g, points))
        qstab = sum(v for v, _ in bd.qstab_membership_many(g, points, tol=1e-6))
        assert (stab, th, qstab) == (inside[name], 70 if name == "C5" else inside[name], th), name


def test_maximal_cliques_stop_at_the_cap(monkeypatch):
    # the cocktail-party graph on 2k vertices has 2^k maximal cliques
    g = gr.circulant_graph(8, (1, 2, 3))
    monkeypatch.setattr(bd, "_MAX_CLIQUES", 16)
    assert len(bd.maximal_cliques(g)) == 16
    monkeypatch.setattr(bd, "_MAX_CLIQUES", 15)
    with pytest.raises(ValueError, match="more than 15 maximal cliques"):
        bd.maximal_cliques(g)


def test_qstab_membership_many_lists_the_cliques_once(monkeypatch):
    calls = []
    cliques = bd.maximal_cliques

    def counted(g):
        calls.append(g)
        return cliques(g)

    monkeypatch.setattr(bd, "maximal_cliques", counted)
    points = [np.full(5, 0.4), np.full(5, 0.6), [-0.1, 0.2, 0.2, 0.2, 0.2]]
    got = bd.qstab_membership_many(gr.cycle_graph(5), points)
    assert len(calls) == 1
    assert [v for v, _ in got] == [True, False, False]
    assert got[1][1] == {"kind": "clique", "clique": [0, 1], "total": 1.2}


def test_stab_membership_many_stays_inside_the_lp_memory_budget():
    from exgraph.numkernel import lp as lp_kernel

    # C15 has 1,364 independent sets: one stacked hull tableau of 2,000
    # points would take 376 MB, so the stack must go in chunks
    g = gr.cycle_graph(15)
    rng = np.random.default_rng(15)
    points = rng.uniform(0.05, 1.0, size=(2000, 15))
    points *= rng.uniform(0.2, 1.3, size=(2000, 1)) / (points + np.roll(points, -1, axis=1)).max(axis=1, keepdims=True)
    tracemalloc.start()
    try:
        verdicts = bd.stab_membership_many(g, points)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert {inside for inside, _ in verdicts} == {True, False}
    assert peak < lp_kernel._STACK_BYTES


def test_th_membership_many_screens_negative_rows_before_solving(monkeypatch):
    g = gr.cycle_graph(5)
    stacks = []
    solve = bd.sdp_solve_many

    def counting(costs, edges, tol):
        stacks.append(len(costs))
        return solve(costs, edges, tol=tol)

    monkeypatch.setattr(bd, "sdp_solve_many", counting)
    rows = [np.full(5, 1.0 / ROOT5), [0.2, -0.1, 0.2, 0.2, 0.2], np.full(5, 0.5), [0.2, 0.2, 0.2, 0.2, -1e-7]]
    got = bd.th_membership_many(g, rows)
    assert stacks == [3]
    assert got[1] == (False, None)
    # a coordinate within tol of 0 is clipped and solved, as th_membership does
    for row, (inside, theta) in zip(rows, got):
        assert (inside, theta) == bd.th_membership(g, row)
    with pytest.raises(ValueError):
        bd.th_membership_many(g, np.zeros((2, 4)))


def test_stab_certificates_carry_no_roundoff_and_hold_on_every_independent_set():
    # coefficients read off a reduced-cost row used to come back as 1e-14
    # where the functional is zero
    rng = np.random.default_rng(13)
    outside = 0
    for n in (5, 7, 9, 11, 13):
        masks = np.arange(1 << n)
        ring = ((masks << 1) | (masks >> (n - 1))) & ((1 << n) - 1)
        chi = (masks[masks & ring == 0][:, None] >> np.arange(n)) & 1
        for _ in range(30):
            p = rng.uniform(0.25, 0.6, n)
            ok, cert = bd.stab_membership(gr.cycle_graph(n), p)
            if ok:
                continue
            outside += 1
            a = np.array(cert["a"])
            assert not np.any((a != 0) & (np.abs(a) <= 1e-9))
            assert np.max(chi @ a) <= cert["beta"] + 1e-9
            assert float(a @ p) - cert["beta"] == pytest.approx(cert["margin"], abs=1e-12)
    assert outside >= 100


@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_non_finite_weights_and_points_are_rejected(bad):
    # LinAlgError subclasses ValueError, so the match tells the two apart
    g = gr.cycle_graph(5)
    w = [0.2, bad, 0.2, 0.2, 0.2]
    with pytest.raises(ValueError, match="finite"):
        bd.lovasz_theta(g, weights=w)
    with pytest.raises(ValueError, match="finite"):
        bd.th_membership(g, w)
    with pytest.raises(ValueError, match="finite"):
        bd.qstab_membership(g, w)
    with pytest.raises(ValueError, match="finite"):
        bd.qstab_membership(g, [math.nan] * 5)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_membership_tests_share_one_point_check(bad):
    # shape first, then finiteness, before any LP or SDP sees the point
    g = gr.cycle_graph(5)
    p = [0.2, 0.2, bad, 0.2, 0.2]
    checks = [
        lambda q: bd.stab_membership(g, q),
        lambda q: bd.th_membership(g, q),
        lambda q: bd.th_membership_many(g, [q, q]),
        lambda q: bd.qstab_membership(g, q),
    ]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for check in checks:
            with pytest.raises(ValueError, match="^coordinates must be finite$"):
                check(p)
            with pytest.raises(ValueError, match=r"^coordinates must have shape \(any, 5\), got \([12], 4\)$"):
                check([0.2, bad, 0.2, 0.2])


def test_qstab_membership_and_certificates():
    g = gr.cycle_graph(5)
    ok, cert = bd.qstab_membership(g, np.full(5, 0.5))
    assert ok and cert is None
    ok, cert = bd.qstab_membership(g, np.full(5, 0.61))
    assert not ok
    assert cert["kind"] == "clique"
    assert cert["total"] == pytest.approx(1.22)
    assert len(cert["clique"]) == 2
    ok, cert = bd.qstab_membership(g, [-0.2, 0.1, 0.1, 0.1, 0.1])
    assert not ok and cert["kind"] == "negative" and cert["vertex"] == 0


def test_membership_chain_stab_th_qstab():
    rng = np.random.default_rng(88)
    for g in (gr.cycle_graph(5), gr.complete_graph(3), gr.path_graph(4)):
        masks = [
            [v for v in range(g.n) if m >> v & 1]
            for m in range(1 << g.n)
            if not any(g.has_edge(u, v) for u in range(g.n) for v in range(g.n) if m >> u & 1 and m >> v & 1 and u < v)
        ]
        for _ in range(5):
            weights = rng.dirichlet(np.ones(len(masks)))
            p = np.zeros(g.n)
            for w, members in zip(weights, masks):
                for v in members:
                    p[v] += w
            assert bd.stab_membership(g, p)[0]
            assert bd.th_membership(g, p)[0]
            assert bd.qstab_membership(g, p)[0]


def test_stab_size_cap():
    with pytest.raises(ValueError):
        bd.stab_membership(gr.empty_graph(40), np.zeros(40))


@st.composite
def _hulls(draw):
    d = draw(st.integers(1, 6))
    k = draw(st.integers(1, 12))
    bits = draw(st.lists(st.booleans(), min_size=d * k, max_size=d * k))
    weights = draw(st.lists(st.floats(0.01, 1.0), min_size=k, max_size=k))
    return np.array(bits, dtype=float).reshape(d, k), np.array(weights) / sum(weights)


@settings(derandomize=True, database=None, max_examples=100, deadline=None)
@given(_hulls(), st.data())
def test_hull_membership_on_random_01_matrices(case, data):
    vertices, w = case
    d, k = vertices.shape
    point = vertices @ w
    inside, x, margin = bd.hull_membership(vertices, point)
    assert inside and margin is None
    assert x.shape == (k,) and x.min() >= -1e-9
    np.testing.assert_allclose(vertices @ x, point, atol=1e-9)
    assert sum(x) == pytest.approx(1.0, abs=1e-9)
    # every hull point lies in the unit cube; push one coordinate out of it
    i = data.draw(st.integers(0, d - 1))
    t = data.draw(st.floats(0.25, 2.0))
    point[i] = 1.0 + t if data.draw(st.booleans()) else -t
    inside, y, margin = bd.hull_membership(vertices, point)
    assert not inside
    a, c = y[:d], y[d]
    assert np.all(np.abs(a) <= 1 + 1e-12) and -d - 1e-12 <= c <= 1 + 1e-12
    assert np.max(a @ vertices + c) <= 1e-9
    assert margin == pytest.approx(float(a @ point + c), abs=1e-12) and margin > 1e-9


def test_hull_membership_size_cap():
    with pytest.raises(ValueError):
        bd.hull_membership(np.zeros((1, bd._HULL_MAX_COLUMNS + 1)), [0.0])


def test_hull_membership_replays_the_lp_answer(monkeypatch):
    solve = bd.lp_solve_many

    def skewed(lp):
        solved = solve(lp)
        for res in solved:
            if res.x is not None:
                # the weights come from x and the Farkas functional from y
                res.x = res.x + 1e-6
                res.y = res.y + 1e-6
        return solved

    monkeypatch.setattr(bd, "lp_solve_many", skewed)
    with pytest.raises(RuntimeError):
        bd.hull_membership(np.eye(2), [0.5, 0.5])
    with pytest.raises(RuntimeError):
        bd.hull_membership(np.eye(2), [1.0, 1.0])
    # a stack of answers is replayed as a stack
    with pytest.raises(RuntimeError):
        bd.hull_membership_many(np.eye(2), [[0.5, 0.5], [0.25, 0.75]])
    with pytest.raises(RuntimeError):
        bd.hull_membership_many(np.eye(2), [[1.0, 1.0], [2.0, 0.0]])


def test_hull_membership_replays_the_whole_farkas_answer(monkeypatch):
    solve = bd.lp_solve_many

    def doubled(lp):
        solved = solve(lp)
        for res in solved:
            if res.y is not None:
                # still nonpositive on every column with twice the margin,
                # but outside the normalisation box and off the LP's optimum
                res.y = 2.0 * res.y
        return solved

    monkeypatch.setattr(bd, "lp_solve_many", doubled)
    with pytest.raises(RuntimeError):
        bd.hull_membership(np.eye(2), [1.0, 1.0])
    with pytest.raises(RuntimeError):
        bd.hull_membership_many(np.eye(2), [[1.0, 1.0], [2.0, 0.0]])


def test_one_skewed_answer_in_a_stack_fails_the_stack(monkeypatch):
    solve = bd.lp_solve_many

    def skew_last(lp):
        solved = solve(lp)
        solved[-1].x = solved[-1].x + 1e-6
        return solved

    monkeypatch.setattr(bd, "lp_solve_many", skew_last)
    points = [[0.5, 0.5], [0.25, 0.75], [0.0, 1.0]]
    with pytest.raises(RuntimeError):
        bd.hull_membership_many(np.eye(2), points)


def _unreduced(vertices, point):
    """The hull LP over every column and, for a point outside it, the Farkas
    LP over every column: (inside, x or y, margin) as the kernel states it
    without its support presolve."""
    d, k = vertices.shape
    ext = np.vstack([vertices, np.ones(k)])
    rhs = np.append(point, 1.0)[None]
    (res,) = lp_solve_many(LinearProgram(c=np.zeros(k), a=ext, senses=("=",) * (d + 1), b=rhs))
    if res.status == "optimal":
        return True, res.x, None
    eye = np.eye(d + 1)
    bounds = np.concatenate([np.ones(d + 1), np.ones(d), [float(d)]])
    farkas = LinearProgram(c=np.concatenate([np.zeros(k), bounds]), a=np.hstack([ext, eye, -eye]),
                           senses=("=",) * (d + 1), b=rhs)
    (res,) = lp_solve_many(farkas)
    return False, res.y, float(rhs[0] @ res.y)


@st.composite
def _supported_points(draw):
    """A 0/1 vertex matrix and up to four points: mixtures with some zero
    weights (so some coordinates are exactly 0), some with one coordinate
    then set to 0 or pushed out of the unit cube."""
    d = draw(st.integers(1, 6))
    k = draw(st.integers(1, 12))
    bits = draw(st.lists(st.booleans(), min_size=d * k, max_size=d * k))
    vertices = np.array(bits, dtype=float).reshape(d, k)
    points = []
    for _ in range(draw(st.integers(1, 4))):
        w = np.array(draw(st.lists(st.sampled_from([0.0]) | st.floats(0.01, 1.0), min_size=k, max_size=k)))
        w[draw(st.integers(0, k - 1))] = 1.0
        point = vertices @ (w / w.sum())
        move = draw(st.sampled_from(["none", "zero", "out"]))
        i = draw(st.integers(0, d - 1))
        if move == "zero":
            point[i] = 0.0
        elif move == "out":
            point[i] = 1.25 if draw(st.booleans()) else -0.25
        points.append(point)
    return vertices, np.array(points)


@settings(derandomize=True, database=None, max_examples=200, deadline=None)
@given(_supported_points())
def test_support_presolve_keeps_every_verdict_and_functional(case):
    vertices, points = case
    for point, (inside, z, margin) in zip(points, bd.hull_membership_many(vertices, points)):
        want_inside, want_z, want_margin = _unreduced(vertices, point)
        assert inside == want_inside
        if inside:
            assert margin is None and z.min() >= -1e-9
            np.testing.assert_allclose(vertices @ z, point, atol=1e-9)
            assert z.sum() == pytest.approx(1.0, abs=1e-9)
            # a zero coordinate rules out every column positive there
            assert not z[vertices[point == 0].any(axis=0)].any()
        else:
            assert repr(z) == repr(want_z) and repr(margin) == repr(want_margin)


def _hull_lps(monkeypatch):
    """Every LP that hull_membership_many solves, as (rows, columns)."""
    solve, shapes = bd.lp_solve_many, []

    def recording(lp):
        shapes.append(lp.a.shape)
        return solve(lp)

    monkeypatch.setattr(bd, "lp_solve_many", recording)
    return shapes


def test_the_all_zero_point_is_in_stab_through_the_empty_set():
    assert bd.stab_membership(gr.cycle_graph(5), np.zeros(5)) == (True, {"weights": {(): 1.0}})


def test_a_support_without_a_column_is_outside_before_any_hull_lp(monkeypatch):
    # every column of the identity is positive at one of the zeros
    shapes = _hull_lps(monkeypatch)
    inside, y, margin = bd.hull_membership(np.eye(3), [0.0, 0.0, 0.0])
    assert not inside and margin > 0
    assert shapes == [(4, 3 + 2 * 4)]  # the Farkas LP alone, over every column
    assert (repr(y), repr(margin)) == tuple(map(repr, _unreduced(np.eye(3), np.zeros(3))[1:]))


@pytest.mark.parametrize("box", [boxes.pr_box(2, 1.0), boxes.Box(boxes.BellScenario((2, 2), (2, 2)), np.zeros((2,) * 4))],
                         ids=["pr", "all-zero"])
def test_a_box_whose_support_fits_no_strategy_is_nonlocal_before_any_hull_lp(monkeypatch, box):
    shapes = _hull_lps(monkeypatch)
    verdict = boxes.is_local(box)
    assert not verdict[0] and local_certificate_holds(box, verdict, atol=0)
    assert shapes == [(17, 16 + 2 * 17)]  # the Farkas LP alone, over all 16 strategies


def test_a_row_with_a_negative_entry_is_not_presolved():
    # (0, 1) is the midpoint of (1, 1) and (-1, 1); the zero in the first row
    # must not rule out (1, 1), since (-1, 1) can cancel it
    inside, x, _ = bd.hull_membership([[1.0, -1.0], [1.0, 1.0]], [0.0, 1.0])
    assert inside
    np.testing.assert_allclose(x, [0.5, 0.5], atol=1e-12)


@pytest.mark.parametrize("d", [1e-6, 1e-7, 1e-8, 3e-9, 1e-9, 1e-10, 1e-11])
def test_stab_just_past_the_odd_cycle_inequality_gets_a_verdict(d):
    # sum(p) = 2 + 5d against alpha(C5) = 2: the weights of a point this
    # close may fail their replay, and the Farkas LP then decides
    g, p = gr.cycle_graph(5), [0.4 + d] * 5
    verdict = bd.stab_membership(g, p)
    assert verdict[0] == (d < 1e-9)
    assert stab_certificate_holds(5, list(g.edges()), p, verdict, atol=1e-8)


@pytest.mark.parametrize("call", [
    lambda tol: bd.lovasz_theta(_PETERSEN, tol=tol),
    lambda tol: bd.lovasz_theta_matrix(_PETERSEN, tol=tol),
    lambda tol: bd.bounds_report(_PETERSEN, tol=tol),
    lambda tol: bd.stab_membership(_PETERSEN, [0.1] * 10, tol=tol),
    lambda tol: bd.stab_membership_many(_PETERSEN, [[0.1] * 10], tol=tol),
    lambda tol: bd.th_membership(_PETERSEN, [0.1] * 10, tol=tol),
    lambda tol: bd.th_membership_many(_PETERSEN, [[0.1] * 10], tol=tol),
    lambda tol: bd.qstab_membership(_PETERSEN, [0.1] * 10, tol=tol),
    lambda tol: bd.qstab_membership_many(_PETERSEN, [[0.1] * 10], tol=tol),
], ids=["theta", "theta-matrix", "bounds-report", "stab", "stab-many", "th", "th-many", "qstab", "qstab-many"])
@pytest.mark.parametrize("tol", [0.0, -1.0, math.nan])
def test_a_tolerance_is_checked_before_any_solve(monkeypatch, call, tol):
    def never(*args, **kwargs):
        raise AssertionError("solved with an invalid tolerance")

    for solver in ("sdp_solve", "sdp_solve_many", "lp_solve", "lp_solve_many", "_theta_cached",
                   "independence_number", "maximal_cliques", "_independent_set_masks"):
        monkeypatch.setattr(bd, solver, never)
    with pytest.raises(ValueError, match="^tol must be "):
        call(tol)


_PETERSEN = gr.petersen_graph()


_C5 = gr.cycle_graph(5)


@pytest.mark.parametrize("call", [
    lambda: bd.lovasz_theta(_C5, [[1, 1]] * 5),
    lambda: bd.lovasz_theta(_C5, [None] * 5),
    lambda: bd.lovasz_theta_matrix(_C5, [{}] * 5),
    lambda: bd.th_membership(_C5, [{}] * 5),
    lambda: bd.th_membership_many(_C5, [[{}] * 5]),
    lambda: bd.stab_membership(_C5, [{}] * 5),
    lambda: bd.qstab_membership(_C5, [[0.1, 0.2]] + [0.1] * 4),
], ids=["theta-lists", "theta-none", "theta-matrix-dicts", "th-dicts", "th-many-dicts", "stab-dicts",
        "qstab-ragged"])
def test_malformed_weights_and_points_raise_value_error(call):
    with pytest.raises(ValueError):
        call()
