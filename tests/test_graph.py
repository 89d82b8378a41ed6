"""Graph construction, families, products, and isomorphism."""

import itertools
import random
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from exgraph import excl
from exgraph import graph as gr
from oracles import first_asymmetric_pair, iso_map_reference, k_subset_reference, random_graph
from test_bounds import _abelian_cayley_rows, _relabelled


def test_from_edges_basic():
    g = gr.from_edges(4, [(0, 1), (1, 2), (2, 3)])
    assert g.n == 4
    assert g.edge_count() == 3
    assert g.has_edge(1, 2) and g.has_edge(2, 1)
    assert not g.has_edge(0, 3)
    assert g.degree(1) == 2 and g.degree(0) == 1


def test_asymmetric_rows_name_the_first_bad_pair():
    rng = random.Random(23)
    for _ in range(200):
        n = rng.randint(2, gr.MAX_VERTICES)
        rows = [0] * n
        for i, j in random_graph(rng, n, rng.uniform(0.05, 0.6)):
            rows[i] |= 1 << j
            rows[j] |= 1 << i
        for _ in range(rng.randint(0, 3)):
            i, j = rng.sample(range(n), 2)
            rows[i] ^= 1 << j
        pair = first_asymmetric_pair(rows)
        if pair is None:
            assert gr.Graph(n, tuple(rows)).rows == tuple(rows)
        else:
            with pytest.raises(gr.GraphError, match=r"^adjacency not symmetric at \(%d,%d\)$" % pair):
                gr.Graph(n, tuple(rows))


def test_from_edges_rejects_bad_input():
    with pytest.raises(gr.GraphError):
        gr.from_edges(3, [(0, 0)])
    with pytest.raises(gr.GraphError):
        gr.from_edges(3, [(0, 3)])


_NON_INTEGER_INDICES = {
    "edge-end": lambda: gr.from_edges(3, [(0, 1.7)]),
    "edge-string": lambda: gr.from_edges(3, [("0", 1)]),
    "vertex-count": lambda: gr.from_edges(3.9, [(0, 1)]),
    "json-n": lambda: gr.from_json_dict({"n": 3.9, "edges": [[0, 1]]}),
    "json-edge": lambda: gr.from_json_dict({"n": 3, "edges": [[0, 1.7]]}),
    "circulant-offset": lambda: gr.circulant_graph(10, (2.5,)),
    "circulant-n": lambda: gr.circulant_graph(10.0, (2,)),
    "cross-pair": lambda: gr.partial_twinning(gr.cycle_graph(5), [(0, 1.0)]),
    "family-n": lambda: gr.build_family("cycle", n=7.9),
}


@pytest.mark.parametrize("name", sorted(_NON_INTEGER_INDICES))
def test_graph_indices_must_be_integers(name):
    # a float index is refused, not truncated to a different graph
    with pytest.raises(gr.GraphError, match="must be an integer"):
        _NON_INTEGER_INDICES[name]()


@pytest.mark.parametrize("build", [
    lambda: gr.complete_graph(20000),
    lambda: gr.cycle_graph(20000),
    lambda: gr.path_graph(300000),
    lambda: gr.kneser_graph(22, 11),
], ids=["complete", "cycle", "path", "kneser"])
def test_family_builders_refuse_oversize_graphs_before_building(build):
    # each used to allocate tens of MiB of rows, edges or subsets first
    tracemalloc.start()
    try:
        with pytest.raises(gr.GraphError, match="must be at most 64"):
            build()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


def test_numpy_integer_indices_are_accepted():
    i64, i32 = np.int64, np.int32
    assert gr.from_edges(i64(3), [(i64(0), i32(1))]) == gr.from_edges(3, [(0, 1)])
    assert gr.circulant_graph(i64(10), np.array([2])) == gr.circulant_graph(10, (2,))
    c5 = gr.cycle_graph(5)
    assert gr.partial_twinning(c5, np.array([[0, 1]])) == gr.partial_twinning(c5, [(0, 1)])


def test_reals_reads_scalars_and_arrays_with_free_axes():
    assert gr._reals(1, "x") == 1.0 and type(gr._reals(1, "x")) is float
    assert gr._reals("0.25", "x") == 0.25
    rows = gr._reals([[1, 2], [3, 4], [5, 6]], "x", (None, 2))
    assert rows.dtype == float and rows.shape == (3, 2)
    assert gr._reals([], "x", (None,), lo=0).shape == (0,)
    with pytest.raises(gr.GraphError, match=r"^x must have shape \(any, 3\), got \(3, 2\)$"):
        gr._reals(rows, "x", (None, 3))
    with pytest.raises(gr.GraphError, match=r"^x must have shape \(\), got \(1,\)$"):
        gr._reals([1.0], "x")


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, None])
def test_reals_refuses_non_finite_values(bad):
    with pytest.raises(gr.GraphError, match="^weights must be finite$"):
        gr._reals([0.5, bad], "weights", (2,))
    with pytest.raises(ValueError, match="^e must be finite$"):
        gr._reals(bad, "e", lo=0, hi=1)


def test_reals_checks_each_end_of_the_range():
    assert gr._reals([0, 0.5, 1], "e", (3,), lo=0, hi=1).tolist() == [0.0, 0.5, 1.0]
    with pytest.raises(gr.GraphError, match=r"^e must be at least 0, got -1e-12$"):
        gr._reals([0.5, -1e-12], "e", (2,), lo=0, hi=1)
    with pytest.raises(gr.GraphError, match=r"^e must be at most 1, got 1.5$"):
        gr._reals(1.5, "e", lo=0, hi=1)


@pytest.mark.parametrize("bad", [[1.0, [2.0, 3.0]], "one", [0.5, "x"], {"a": 1}, 1 + 2j,
                                 np.array([1.0, 2.0j]), np.complex128(1.0)])
def test_reals_refuses_ragged_lists_and_non_numbers(bad):
    with pytest.raises(gr.GraphError, match="^p must be real numbers"):
        gr._reals(bad, "p", (None,) if isinstance(bad, (list, np.ndarray)) else ())


@pytest.mark.parametrize("bad", ["0", "-1", "nan", "inf", "tiny", 0.0, -1e-300])
def test_tolerances_must_be_positive_and_finite(bad):
    with pytest.raises(gr.GraphError, match="^tol must be "):
        gr._tolerance(bad, "tol")
    assert gr._tolerance("1e-9", "tol") == 1e-9


def test_json_roundtrip_keeps_labels():
    g = gr.from_edges(3, [(0, 1), (1, 2)], labels=("a", "b", "c"))
    g2 = gr.from_json_dict(g.to_json_dict())
    assert g2.n == g.n
    assert sorted(g2.edges()) == sorted(g.edges())
    assert g2.labels == ("a", "b", "c")
    with pytest.raises(gr.GraphError):
        gr.from_json_dict({"edges": [[0, 1]]})


@pytest.mark.parametrize("n", [3, 5, 8])
def test_cycle_graph_is_2_regular(n):
    g = gr.cycle_graph(n)
    assert g.edge_count() == n
    assert all(g.degree(v) == 2 for v in range(n))
    assert g.is_connected()


def test_family_edge_counts():
    assert gr.complete_graph(6).edge_count() == 15
    assert gr.path_graph(4).edge_count() == 3
    assert gr.prism_graph(5).edge_count() == 15
    assert gr.moebius_ladder(8).edge_count() == 12
    assert gr.petersen_graph().edge_count() == 15
    assert gr.johnson_graph(5, 2).edge_count() == 30
    g = gr.subset_intersection_graph(3, 1)
    assert g.n == 20
    assert g.edge_count() == 90


def test_family_validation_errors():
    for bad in (
        lambda: gr.cycle_graph(2),
        lambda: gr.circulant_graph(6, []),
        lambda: gr.circulant_graph(6, [4]),
        lambda: gr.moebius_ladder(7),
        lambda: gr.johnson_graph(2, 3),
        lambda: gr.prism_graph(2),
        lambda: gr.subset_intersection_graph(2, 2),
    ):
        with pytest.raises(gr.GraphError):
            bad()


@pytest.mark.parametrize(
    "build,m,k,meet,labelled",
    [
        (lambda: gr.johnson_graph(5, 2), 5, 2, 1, True),
        (lambda: gr.johnson_graph(6, 2), 6, 2, 1, True),
        (lambda: gr.kneser_graph(5, 2), 5, 2, 0, True),
        (lambda: gr.subset_intersection_graph(3, 1), 6, 3, 1, False),
    ],
)
def test_subset_families_match_the_subset_oracle(build, m, k, meet, labelled):
    g = build()
    edges, labels = k_subset_reference(m, k, meet)
    assert g.edges() == edges
    assert g.labels == (tuple(labels) if labelled else None)


def test_cycles_are_circulants():
    for n in (3, 4, 5, 20, 64):
        g = gr.cycle_graph(n)
        assert g.rows == gr.from_edges(n, [(i, (i + 1) % n) for i in range(n)]).rows
        assert gr._cayley_group(n, g.rows) == (n, 1)


def test_build_family_dispatch():
    g = gr.build_family("circulant", n=10, offsets=(1, 4))
    assert g.n == 10 and g.degree(0) == 4
    assert gr.is_isomorphic(gr.build_family("petersen"), gr.petersen_graph())
    with pytest.raises(gr.GraphError):
        gr.build_family("dodecahedron")


def test_adjacency_matrix_symmetric_zero_diagonal():
    g = gr.circulant_graph(9, [1, 3])
    a = g.adjacency_matrix()
    assert np.array_equal(a, a.T)
    assert not np.any(np.diag(a))
    assert a.sum() == 2 * g.edge_count()


def test_handshake_on_random_graphs():
    rng = random.Random(7)
    for _ in range(25):
        n = rng.randint(2, 14)
        g = gr.from_edges(n, random_graph(rng, n, 0.4))
        assert sum(g.degree(v) for v in range(n)) == 2 * g.edge_count()


def test_complement_is_an_involution():
    rng = random.Random(11)
    for _ in range(20):
        n = rng.randint(1, 12)
        g = gr.from_edges(n, random_graph(rng, n, 0.5))
        h = gr.complement(g)
        assert g.edge_count() + h.edge_count() == n * (n - 1) // 2
        assert gr.complement(h).rows == g.rows


def test_known_complement_pairs():
    c5 = gr.cycle_graph(5)
    assert gr.is_isomorphic(gr.complement(c5), c5)
    assert gr.is_isomorphic(gr.complement(gr.petersen_graph()), gr.johnson_graph(5, 2))


def test_moebius_ladder_is_circulant_with_diameters():
    m = gr.moebius_ladder(10)
    assert all(m.degree(v) == 3 for v in range(10))
    assert m.has_edge(0, 5)


def test_isomorphic_after_relabeling():
    rng = random.Random(3)
    for _ in range(10):
        n = rng.randint(4, 10)
        edges = random_graph(rng, n, 0.45)
        g = gr.from_edges(n, edges)
        perm = list(range(n))
        rng.shuffle(perm)
        h = gr.from_edges(n, [(perm[i], perm[j]) for i, j in edges])
        assert gr.is_isomorphic(g, h)
        wit = gr.isomorphism_witness(g, h)
        assert wit is not None
        for i, j in g.edges():
            assert h.has_edge(wit[i], wit[j])


def test_non_isomorphic_same_degree_sequence():
    c6 = gr.cycle_graph(6)
    two_triangles = gr.disjoint_union(gr.cycle_graph(3), gr.cycle_graph(3))
    assert not gr.is_isomorphic(c6, two_triangles)
    assert gr.isomorphism_witness(c6, two_triangles) is None
    assert not gr.is_isomorphic(gr.cycle_graph(5), gr.cycle_graph(7))


def test_isomorphism_runs_above_sixteen_vertices():
    c20 = gr.cycle_graph(20)
    assert not gr.is_isomorphic(c20, gr.complement(c20))
    assert gr.isomorphism_witness(c20, gr.complement(c20)) is None
    # the Paley graph on 17 vertices has as many edges as its complement,
    # so only the search can tell that the two are isomorphic
    paley = gr.circulant_graph(17, (1, 2, 4, 8))
    assert paley.edge_count() == gr.complement(paley).edge_count()
    assert gr.is_isomorphic(paley, gr.complement(paley))


def test_isomorphism_backtracks_on_a_rigid_cubic_graph():
    # the Frucht graph is 3-regular with no automorphism but the identity, so
    # refinement leaves one cell and most individualisations must be undone
    lcf = (-5, -2, -4, 2, 5, -2, 2, 5, -2, -5, 4, 2)
    edges = [(i, (i + 1) % 12) for i in range(12)] + [(i, (i + o) % 12) for i, o in enumerate(lcf)]
    g = gr.from_edges(12, edges)
    assert g.edge_count() == 18 and all(g.degree(v) == 3 for v in range(12))
    assert not gr.is_vertex_transitive(g)
    rng = random.Random(17)
    for _ in range(10):
        perm = list(range(12))
        rng.shuffle(perm)
        h = gr.from_edges(12, [(perm[i], perm[j]) for i, j in edges])
        assert gr.isomorphism_witness(g, h) == perm


def test_isomorphism_tells_strongly_regular_twins_apart():
    # the 4x4 rook's graph and the Shrikhande graph are both strongly regular
    # with parameters (16, 6, 2, 2), so refinement alone never splits them;
    # two copies of one against one of each needs the search to skip targets
    # that an automorphism takes to a failed one, or it runs for tens of seconds
    pairs = list(itertools.combinations(range(16), 2))
    rook = gr.from_edges(16, [(a, b) for a, b in pairs if a // 4 == b // 4 or a % 4 == b % 4])
    steps = {(0, 1), (0, 3), (1, 0), (3, 0), (1, 1), (3, 3)}
    shrikhande = gr.from_edges(16, [(a, b) for a, b in pairs if ((a // 4 - b // 4) % 4, (a % 4 - b % 4) % 4) in steps])
    assert not gr.is_isomorphic(rook, shrikhande)
    assert not gr.is_isomorphic(gr.disjoint_union(rook, rook), gr.disjoint_union(rook, shrikhande))
    assert gr.is_isomorphic(gr.disjoint_union(rook, shrikhande), gr.disjoint_union(shrikhande, rook))
    assert gr.is_vertex_transitive(shrikhande)
    assert not gr.is_vertex_transitive(gr.disjoint_union(rook, shrikhande))


def _is_witness(g, h, m):
    """Whether m is an edge-preserving bijection g -> h."""
    return sorted(m) == list(range(g.n)) and all(h.has_edge(m[i], m[j]) for i, j in g.edges())


@st.composite
def _iso_cases(draw):
    """A graph on up to 12 vertices, a relabelled copy, and a relabelled copy
    after one degree-preserving swap (ab, cd -> ac, bd) when the graph has one."""
    n = draw(st.integers(1, 12))
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    p = draw(st.sampled_from([0.2, 0.5, 0.8]))
    keep = draw(st.lists(st.floats(0.0, 1.0), min_size=len(pairs), max_size=len(pairs)))
    edges = [e for e, u in zip(pairs, keep) if u < p]
    g = gr.from_edges(n, edges)
    perm = draw(st.permutations(range(n)))
    h = gr.from_edges(n, [(perm[i], perm[j]) for i, j in edges])
    swaps = [
        (ab, cd, (a, c), (b, d))
        for ab, cd in itertools.combinations(edges, 2)
        for (a, b), (c, d) in ((ab, cd), (ab[::-1], cd))
        if len({a, b, c, d}) == 4 and not g.has_edge(a, c) and not g.has_edge(b, d)
    ]
    if not swaps:
        return g, h, None
    ab, cd, ac, bd = draw(st.sampled_from(swaps))
    moved = [e for e in edges if e not in (ab, cd)] + [ac, bd]
    return g, h, gr.from_edges(n, [(perm[i], perm[j]) for i, j in moved])


@settings(derandomize=True, database=None, max_examples=200, deadline=None)
@given(_iso_cases())
def test_iso_map_matches_the_has_edge_search(case):
    g, h, swapped = case
    found = gr._iso_map(g, h)
    assert found is not None and _is_witness(g, h, found)
    if swapped is not None:
        found = gr._iso_map(g, swapped)
        assert (found is None) == (iso_map_reference(g, swapped) is None)
        assert found is None or _is_witness(g, swapped, found)
    for v in range(g.n):
        found = gr._iso_map(g, g, fixed=(0, v))
        assert (found is None) == (iso_map_reference(g, g, fixed=(0, v)) is None)
        assert found is None or (_is_witness(g, g, found) and found[0] == v)


@settings(derandomize=True, database=None, max_examples=60, deadline=None)
@given(st.integers(17, 64), st.sampled_from([0.1, 0.3, 0.5, 0.9]), st.integers(0, 2**32))
def test_isomorphism_witness_holds_up_to_64_vertices(n, p, seed):
    rng = random.Random(seed)
    edges = random_graph(rng, n, p)
    g = gr.from_edges(n, edges)
    perm = list(range(n))
    rng.shuffle(perm)
    h = gr.from_edges(n, [(perm[i], perm[j]) for i, j in edges])
    found = gr.isomorphism_witness(g, h)
    assert found is not None and _is_witness(g, h, found)
    # one degree-preserving swap ab, cd -> ac, bd usually breaks the isomorphism;
    # whatever the search returns must still be a witness
    for (a, b), (c, d) in (rng.sample(edges, 2) for _ in range(20 if len(edges) > 1 else 0)):
        if len({a, b, c, d}) == 4 and not g.has_edge(a, c) and not g.has_edge(b, d):
            moved = [e for e in edges if e not in ((a, b), (c, d))] + [(a, c), (b, d)]
            swapped = gr.from_edges(n, [(perm[i], perm[j]) for i, j in moved])
            found = gr.isomorphism_witness(g, swapped)
            assert found is None or _is_witness(g, swapped, found)
            break


_PRISM32 = gr.prism_graph(32)
_C8_C8 = excl.conormal_product(gr.cycle_graph(8), gr.cycle_graph(8))
_TWO_C32 = gr.disjoint_union(gr.cycle_graph(32), gr.cycle_graph(32))
_M64 = gr.from_edges(64, gr.moebius_ladder(64).edges())


@pytest.mark.parametrize(
    "g,expect",
    [
        (gr.cycle_graph(7), True),
        (gr.petersen_graph(), True),
        (gr.prism_graph(5), True),
        (gr.path_graph(4), False),
        (gr.from_edges(4, [(0, 1), (1, 2), (1, 3)]), False),
        # 64 vertices: the first four are Cayley graphs of Z_a x Z_b in their
        # own labelling and skip the search; the next two, and the relabelled
        # copies of the first four at the end, are searched
        (_PRISM32, True),
        (_C8_C8, True),
        (_TWO_C32, True),
        (_M64, True),
        (gr.path_graph(64), False),
        (gr.disjoint_union(gr.cycle_graph(30), gr.cycle_graph(34)), False),
        (_relabelled(_PRISM32, 1), True),
        (_relabelled(_C8_C8, 2), True),
        (_relabelled(_TWO_C32, 3), True),
        (_relabelled(_M64, 4), True),
    ],
)
def test_vertex_transitivity(g, expect, monkeypatch):
    searches = []
    search = gr._iso_map
    monkeypatch.setattr(gr, "_iso_map", lambda *args, **kw: searches.append(args) or search(*args, **kw))
    assert gr.is_vertex_transitive(g) is expect
    assert bool(searches) == (gr._cayley_group(g.n, g.rows) is None)


@pytest.mark.parametrize(
    "g",
    [
        _PRISM32,
        _C8_C8,
        _TWO_C32,
        gr.cycle_graph(64),
        gr.complete_graph(6),
        gr.empty_graph(7),
        gr.complement(gr.circulant_graph(11, (1, 3))),
    ],
    ids=["prism32", "C8xC8", "2xC32", "C64", "K6", "edgeless7", "circulant-complement"],
)
def test_cayley_labelled_graphs_are_vertex_transitive_without_a_search(g, monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("a Cayley-labelled graph went to the automorphism search")

    monkeypatch.setattr(gr, "_iso_map", refuse)
    assert gr.is_vertex_transitive(g)


@settings(derandomize=True, database=None, max_examples=40, deadline=None)
@given(_abelian_cayley_rows(), st.integers(0, 2**32))
def test_abelian_cayley_graphs_are_vertex_transitive_in_any_labelling(case, seed):
    n, rows = case
    g = gr.Graph(n, rows)
    assert gr.is_vertex_transitive(g)
    # the relabelled copy goes through the search, whatever its labelling
    with mock.patch.object(gr, "_cayley_group", return_value=None):
        assert gr.is_vertex_transitive(_relabelled(g, seed))


def test_disjoint_union_and_cosum():
    g = gr.cycle_graph(5)
    u = gr.disjoint_union(g, g)
    assert u.n == 10 and u.edge_count() == 10
    assert not u.is_connected()
    s = gr.direct_cosum(g, g)
    assert s.edge_count() == 10 + 25
    assert all(s.has_edge(i, 5 + j) for i in range(5) for j in range(5))


def test_twinning_family():
    g = gr.cycle_graph(5)
    dup = gr.duplication(g)
    twin = gr.twinning(g)
    assert dup.n == twin.n == 10
    assert dup.edge_count() == 10
    assert twin.edge_count() == 10 + 2 * g.edge_count()
    kept = [(u, (u + 1) % 5) for u in range(5)]
    part = gr.partial_twinning(g, kept)
    assert part.edge_count() == 10 + len(kept)
    assert dup.edge_count() <= part.edge_count() <= twin.edge_count()


def test_partial_twinning_rejects_non_edges():
    g = gr.cycle_graph(5)
    with pytest.raises(gr.GraphError):
        gr.partial_twinning(g, [(0, 2)])
    with pytest.raises(gr.GraphError):
        gr.partial_twinning(g, [(0, 9)])


def test_twinning_c5_is_the_expected_circulant():
    assert gr.is_isomorphic(gr.twinning(gr.cycle_graph(5)), gr.circulant_graph(10, (1, 4)))
