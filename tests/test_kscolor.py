"""Ray systems, 0/1 colorability search, and multiplicative operator proofs.

The search result is cross-checked against an exhaustive enumeration oracle
on every system small enough to enumerate.
"""

import math
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from exgraph import graph as gr
from exgraph.kscolor import (
    ColoringProblem,
    OperatorProofSpec,
    classify_colorability,
    coloring_problem,
    dim8_star,
    full_bases,
    ks8_vectors,
    orthogonality_graph,
    p33_proof_rays,
    p33_vectors,
    peres_mermin_square,
    proof_spec_from_json_dict,
    vector_system,
    vector_system_from_json_dict,
    verify_coloring,
    verify_multiplicative_proof,
)
from exgraph.quantum import IDENT2, SIGMA_Z
from oracles import brute_colorings, parity_assignment_exists

TRACE_EVENTS = {"pin", "propagate", "branch", "conflict", "backtrack"}


def test_vector_system_normalizes_and_canonicalizes():
    vs = vector_system([(0, 0, 2), (3, 0, 0), (0, -5, 0)])
    for v in vs.vectors:
        assert np.linalg.norm(v) == pytest.approx(1.0, abs=1e-12)
        first = next(x for x in v if abs(x) > 1e-12)
        assert first > 0


def test_vector_system_rejects_duplicates_and_degenerates():
    with pytest.raises(ValueError, match="duplicate ray"):
        vector_system([(1, 0, 0), (-2, 0, 0)])
    with pytest.raises(ValueError):
        vector_system([(0, 0, 0), (1, 0, 0)])
    with pytest.raises(ValueError):
        vector_system([(1, 0, 0), (1, 0)])
    # one graph vertex per ray: the cap comes before the pairwise duplicate check
    with pytest.raises(ValueError, match="ray count must be at most 64"):
        vector_system([(1, i, 0) for i in range(65)])


def test_vector_system_json_roundtrip():
    vs = vector_system([(1, 0, 0), (0, 1, 1), (0, 1, -1)], labels=("x", "p", "m"))
    again = vector_system_from_json_dict(vs.to_json_dict())
    assert again.dimension == 3
    assert again.labels == ("x", "p", "m")
    np.testing.assert_allclose(np.array(again.vectors), np.array(vs.vectors), atol=1e-12)


def test_orthogonality_graph_of_the_standard_basis():
    vs = vector_system([(1, 0, 0), (0, 1, 0), (0, 0, 1), (0, 1, 1)])
    g = orthogonality_graph(vs)
    assert g.has_edge(0, 1) and g.has_edge(0, 3)
    assert not g.has_edge(1, 3)
    bases = full_bases(g, 3)
    assert (0, 1, 2) in bases


def test_coloring_problem_validation():
    g = gr.cycle_graph(4)
    with pytest.raises(ValueError):
        ColoringProblem(g, ((0, 2),))
    with pytest.raises(ValueError):
        ColoringProblem(g, ((0, 1),), pins={0: 2})
    with pytest.raises(ValueError):
        ColoringProblem(g, ((0, 1),), pins={9: 1})


def test_standard_basis_coloring_matches_oracle():
    vs = vector_system([(1, 0, 0), (0, 1, 0), (0, 0, 1)])
    cp = coloring_problem(vs)
    res = classify_colorability(cp)
    assert res.status == "COLORABLE"
    ok, problems = verify_coloring(cp, res.witness)
    assert ok, problems
    oracle = brute_colorings(3, cp.graph.edges(), cp.bases)
    assert len(oracle) == 3
    assert tuple(res.witness[v] for v in range(3)) in oracle


def test_ks8_defaults_and_validation():
    vs = ks8_vectors()
    assert vs.dimension == 3
    assert len(vs.vectors) == 8
    assert vs.labels == tuple("ABCDEFGH")
    with pytest.raises(ValueError):
        ks8_vectors(alpha=1.0)
    with pytest.raises(ValueError):
        ks8_vectors(alpha=1.0, beta=2.0, phi=0.0)


def test_ks8_colorability_with_and_without_pins():
    vs = ks8_vectors()
    free = classify_colorability(coloring_problem(vs))
    assert free.status == "COLORABLE"
    cp = coloring_problem(vs, pins={0: 1, 7: 1})
    pinned = classify_colorability(cp)
    assert pinned.status == "UNCOLORABLE"
    assert pinned.witness is None
    # exhaustive cross-check of both answers
    edges = cp.graph.edges()
    assert brute_colorings(8, edges, cp.bases, pins={0: 1, 7: 1}) == []
    assert brute_colorings(8, edges, cp.bases) != []


def test_trace_vocabulary_and_conflicts():
    cp = coloring_problem(ks8_vectors(), pins={0: 1, 7: 1})
    res = classify_colorability(cp)
    assert {e["event"] for e in res.trace} <= TRACE_EVENTS
    assert any(e["event"] == "conflict" for e in res.trace)
    assert any(e["event"] == "pin" for e in res.trace)


def test_p33_has_33_rays_every_ray_in_a_full_basis():
    vs = p33_vectors()
    assert len(vs.vectors) == 33
    g = orthogonality_graph(vs)
    bases = full_bases(g, 3)
    covered = {v for basis in bases for v in basis}
    assert covered == set(range(33))


def test_p33_is_uncolorable():
    res = classify_colorability(coloring_problem(p33_vectors()))
    assert res.status == "UNCOLORABLE"
    assert any(e["event"] == "conflict" for e in res.trace)


def test_p33_proof_subset_is_colorable_on_its_own():
    vs = p33_proof_rays()
    assert len(vs.vectors) == 25
    cp = coloring_problem(vs)
    res = classify_colorability(cp)
    assert res.status == "COLORABLE"
    ok, problems = verify_coloring(cp, res.witness)
    assert ok, problems


def test_random_p33_subsystems_match_exhaustive_search():
    vs = p33_vectors()
    g = orthogonality_graph(vs)
    rng = random.Random(13)
    for _ in range(10):
        keep = sorted(rng.sample(range(33), rng.randint(8, 14)))
        remap = {v: i for i, v in enumerate(keep)}
        edges = [(remap[i], remap[j]) for i, j in g.edges() if i in remap and j in remap]
        sub = gr.from_edges(len(keep), edges)
        bases = full_bases(sub, 3)
        cp = ColoringProblem(sub, bases)
        res = classify_colorability(cp)
        oracle = brute_colorings(sub.n, edges, bases)
        if res.status == "COLORABLE":
            assert oracle, "search found a coloring the oracle says cannot exist"
            assert tuple(res.witness[v] for v in range(sub.n)) in oracle
        else:
            assert oracle == []


def test_verify_coloring_reports_each_defect():
    vs = vector_system([(1, 0, 0), (0, 1, 0), (0, 0, 1)])
    cp = coloring_problem(vs, pins={0: 0})
    ok, problems = verify_coloring(cp, {0: 1, 1: 1, 2: 0})
    assert not ok
    text = " ".join(problems)
    assert "adjacent 1s" in text
    assert "pin" in text


def test_peres_mermin_square_report():
    report = verify_multiplicative_proof(peres_mermin_square())
    assert report.operators_ok
    assert report.lines_commute
    assert report.products_match
    assert not report.assignment_exists


def test_dim8_star_report():
    report = verify_multiplicative_proof(dim8_star())
    assert report.operators_ok
    assert report.lines_commute
    assert report.products_match
    assert not report.assignment_exists


def test_flipped_sign_restores_classical_assignment():
    spec = peres_mermin_square()
    flipped = OperatorProofSpec(spec.operators, spec.lines, (1,) * len(spec.signs))
    report = verify_multiplicative_proof(flipped)
    assert report.operators_ok and report.lines_commute
    assert not report.products_match
    assert report.assignment_exists


def test_an_operator_listed_twice_cancels_in_its_line():
    # Z Z = I matches the second line's +1 whatever Z's value, and -I = -1
    # matches the first, so Z = +1, -I = -1 satisfies both lines
    spec = OperatorProofSpec((SIGMA_Z, -IDENT2), ((1,), (0, 0)), (-1, 1))
    report = verify_multiplicative_proof(spec)
    assert report.products_match
    assert report.assignment_exists
    one_line = OperatorProofSpec(spec.operators, spec.lines[:1], spec.signs[:1])
    assert verify_multiplicative_proof(one_line).assignment_exists


@st.composite
def _parity_systems(draw):
    k = draw(st.integers(1, 10))
    lines = draw(st.lists(st.lists(st.integers(0, k - 1), min_size=1, max_size=5), min_size=1, max_size=8))
    signs = draw(st.lists(st.sampled_from((1, -1)), min_size=len(lines), max_size=len(lines)))
    return k, tuple(map(tuple, lines)), tuple(signs)


@settings(derandomize=True, database=None, max_examples=300, deadline=None)
@given(_parity_systems())
def test_assignment_existence_matches_brute_force(case):
    k, lines, signs = case
    spec = OperatorProofSpec((np.eye(1, dtype=complex),) * k, lines, signs)
    assert verify_multiplicative_proof(spec).assignment_exists == parity_assignment_exists(k, lines, signs)


def two_peres_mermin_squares() -> OperatorProofSpec:
    """Two squares on four qubits, one on qubits 1-2 and one on qubits 3-4:
    18 operators, twelve lines, no consistent assignment."""
    pm = peres_mermin_square()
    eye4 = np.eye(4, dtype=complex)
    ops = tuple(np.kron(op, eye4) for op in pm.operators) + tuple(np.kron(eye4, op) for op in pm.operators)
    lines = pm.lines + tuple(tuple(i + 9 for i in line) for line in pm.lines)
    return OperatorProofSpec(ops, lines, pm.signs * 2)


def test_eighteen_operators_need_no_search_cap():
    report = verify_multiplicative_proof(two_peres_mermin_squares())
    assert report.operators_ok and report.lines_commute and report.products_match
    assert not report.assignment_exists


def test_proof_spec_validation():
    spec = peres_mermin_square()
    with pytest.raises(ValueError):
        OperatorProofSpec(spec.operators, spec.lines, spec.signs[:-1])
    with pytest.raises(ValueError):
        OperatorProofSpec(spec.operators, spec.lines, (2,) * len(spec.signs))
    with pytest.raises(ValueError):
        OperatorProofSpec(spec.operators, ((0, 99),), (1,))


def test_proof_spec_json_roundtrip():
    spec = dim8_star()
    again = proof_spec_from_json_dict(spec.to_json_dict())
    assert again.lines == spec.lines
    assert again.signs == spec.signs
    report = verify_multiplicative_proof(again)
    assert report.products_match and not report.assignment_exists


def test_non_unitary_operator_is_flagged():
    bad = OperatorProofSpec(
        (np.diag([1.0, 0.5]).astype(complex), np.eye(2, dtype=complex)),
        ((0, 1),),
        (1,),
    )
    report = verify_multiplicative_proof(bad)
    assert not report.operators_ok


@pytest.mark.parametrize("tol", [0.0, -1.0, math.nan])
def test_a_proof_tolerance_is_checked(tol):
    with pytest.raises(ValueError, match="^tol must be "):
        verify_multiplicative_proof(peres_mermin_square(), tol=tol)
