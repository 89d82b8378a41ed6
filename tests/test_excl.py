"""Exclusivity-principle machinery: conormal powers, one-round bounds,
complement duality, the doubling operations, and the ten-vertex survey."""

import json
import math

import numpy as np
import pytest

from exgraph import cli, excl
from exgraph import graph as gr
from exgraph.bounds import independence_number, lovasz_theta, th_membership
from exgraph.excl import (
    circulant10_census,
    circulant10_suite,
    conormal_product,
    duality_suite,
    eprinciple_pair_test,
    eprinciple_violation_witness,
    matched_pair_events,
    one_round_symmetric_bound,
    op_propagation_suite,
    pentagon_eprinciple_bound,
)
from oracles import conormal_reference

ROOT5 = math.sqrt(5.0)


def test_conormal_product_structure():
    c5 = gr.cycle_graph(5)
    sq = conormal_product(c5, c5)
    assert sq.n == 25
    # u~u' or v~v': 5*25 + 25*5 - 2*5*5 unordered pairs
    assert sq.edge_count() == 200
    assert independence_number(sq)[0] == 4
    assert sq.label(7) is not None


@pytest.mark.parametrize("g,h", [
    *[(gr.cycle_graph(a), gr.cycle_graph(b)) for a, b in ((3, 3), (3, 8), (5, 5), (5, 7), (7, 5), (8, 8))],
    (gr.petersen_graph(), gr.prism_graph(3)),
    (gr.path_graph(4), gr.complete_graph(3)),
], ids=["C3xC3", "C3xC8", "C5xC5", "C5xC7", "C7xC5", "C8xC8", "PetersenxY3", "P4xK3"])
def test_conormal_product_matches_the_pairwise_oracle(g, h):
    edges, labels = conormal_reference(g, h)
    assert conormal_product(g, h) == gr.from_edges(g.n * h.n, edges, labels)


def test_conormal_theta_is_multiplicative_on_the_pentagon():
    c5 = gr.cycle_graph(5)
    sq = conormal_product(c5, c5)
    assert lovasz_theta(sq, tol=1e-6) == pytest.approx(5.0, abs=1e-4)


def test_matched_pairs():
    assert matched_pair_events(5) == ((0, 0), (1, 2), (2, 4), (3, 1), (4, 3))
    pairs = matched_pair_events(7)
    assert len(pairs) == 7
    assert all(b == (2 * a) % 7 for a, b in pairs)


def test_matched_pairs_form_a_pentagon_clique_but_not_a_heptagon_one():
    c5 = gr.cycle_graph(5)
    sq5 = conormal_product(c5, c5)
    idx5 = [u * 5 + v for u, v in matched_pair_events(5)]
    assert all(sq5.has_edge(a, b) for i, a in enumerate(idx5) for b in idx5[i + 1:])
    c7 = gr.cycle_graph(7)
    sq7 = conormal_product(c7, c7)
    idx7 = [u * 7 + v for u, v in matched_pair_events(7)]
    assert not all(sq7.has_edge(a, b) for i, a in enumerate(idx7) for b in idx7[i + 1:])


@pytest.mark.parametrize(
    "n,expected",
    [(3, 1.0), (5, ROOT5), (7, 3.5)],
)
def test_one_round_symmetric_bound(n, expected):
    assert one_round_symmetric_bound(gr.cycle_graph(n)) == pytest.approx(expected, abs=1e-9)


def test_heptagon_formula_value_is_out_of_reach():
    # a heptagon-sized clique of pairwise exclusive events would give
    # 7/sqrt(7); the actual largest clique only supports 3.5, which is
    # weaker than the semidefinite value of the heptagon itself
    assert 7 / math.sqrt(7) == pytest.approx(math.sqrt(7))
    c7 = gr.cycle_graph(7)
    assert one_round_symmetric_bound(c7) > lovasz_theta(c7)
    assert math.sqrt(7) < lovasz_theta(c7)


def test_pentagon_bound_is_root5():
    assert pentagon_eprinciple_bound() == pytest.approx(ROOT5, abs=1e-12)


def test_pair_test():
    c5 = gr.cycle_graph(5)
    at_quantum = [1 / ROOT5] * 5
    assert eprinciple_pair_test(c5, at_quantum, at_quantum)
    classical_max = [0.5] * 5
    assert not eprinciple_pair_test(c5, classical_max, classical_max)
    with pytest.raises(ValueError):
        eprinciple_pair_test(c5, [0.5] * 4, [0.5] * 5)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_pair_test_refuses_a_non_finite_entry(bad):
    # a NaN product compares false, so it used to read as "no violation"
    c5 = gr.cycle_graph(5)
    with pytest.raises(ValueError, match="must be finite"):
        eprinciple_pair_test(c5, [0.5, 0.5, bad, 0.5, 0.5], [0.5] * 5)
    with pytest.raises(ValueError, match="must be finite"):
        eprinciple_pair_test(c5, [0.5] * 5, [bad, 0.5, 0.5, 0.5, 0.5])


def test_duality_suite_pentagon():
    rep = duality_suite(gr.cycle_graph(5), graph_id="C5")
    assert rep.graph_id == "C5"
    assert rep.vt_flag and rep.self_complementary_flag
    assert rep.theta_g == pytest.approx(ROOT5, abs=1e-5)
    assert rep.product == pytest.approx(5.0, abs=1e-4)
    assert rep.product_ok and rep.e_ceiling_ok and rep.self_comp_ok
    assert rep.e_principle_max == pytest.approx(ROOT5, abs=1e-5)
    d = rep.to_json_dict()
    assert d["graph"] == "C5" and d["product_ok"]


def test_duality_suite_petersen():
    rep = duality_suite(gr.petersen_graph(), graph_id="Petersen")
    assert rep.vt_flag and not rep.self_complementary_flag
    assert rep.product == pytest.approx(10.0, abs=1e-3)
    assert rep.product >= 10 - 1e-5
    assert rep.product_ok


def test_duality_suite_on_a_non_transitive_graph():
    rep = duality_suite(gr.path_graph(4), graph_id="P4")
    assert not rep.vt_flag
    assert rep.e_principle_max is None
    assert rep.product_ok is None and rep.self_comp_ok is None


def test_duality_suite_size_cap():
    with pytest.raises(ValueError):
        duality_suite(gr.empty_graph(65))


def test_duality_suite_reports_prism_9_as_vertex_transitive():
    rep = duality_suite(gr.prism_graph(9), graph_id="Y9")
    assert rep.n == 18 and rep.vt_flag and not rep.self_complementary_flag
    assert rep.product >= rep.n - 1e-5 and rep.product_ok


@pytest.mark.parametrize("flags,n", [
    (["--family", "cycle", "--n", "20"], 20),
    (["--family", "circulant", "--n", "20", "--offsets", "1"], 20),
    (["--family", "moebius", "--n", "20"], 20),
    (["--family", "cycle", "--n", "64"], 64),
])
def test_duality_reaches_circulants_above_the_search_cap(tmp_path, flags, n):
    # vertex transitivity is known from the offsets, and the graph and its
    # complement differ in edge count, so neither symmetry test searches
    out = tmp_path / "duality.json"
    assert cli.run(["duality", *flags, "--output", str(out)]) == 0
    rep = json.loads(out.read_text())
    assert rep["n"] == n and rep["vertex_transitive"] and not rep["self_complementary"]
    assert rep["product"] >= n - 1e-5 and rep["product_ok"]


@pytest.mark.parametrize("flags,n,self_complementary", [
    (["--family", "prism", "--n", "9"], 18, False),
    (["--family", "prism", "--n", "32"], 64, False),
    (["--family", "circulant", "--n", "17", "--offsets", "1,2,4,8"], 17, True),
    (["--input", "moebius64.json"], 64, False),
], ids=["prism9", "prism32", "paley17", "moebius64-json"])
def test_duality_runs_the_symmetry_searches_up_to_64_vertices(tmp_path, flags, n, self_complementary):
    # the Moebius ladder read from JSON carries no circulant offsets, so its
    # vertex transitivity comes from the automorphism search
    (tmp_path / "moebius64.json").write_text(json.dumps(gr.moebius_ladder(64).to_json_dict()))
    flags = [str(tmp_path / f) if f.endswith(".json") else f for f in flags]
    out = tmp_path / "duality.json"
    assert cli.run(["duality", *flags, "--output", str(out)]) == 0
    rep = json.loads(out.read_text())
    assert rep["n"] == n and rep["vertex_transitive"] and rep["product_ok"]
    assert rep["self_complementary"] is self_complementary
    assert rep["self_complementary_theta_ok"] is (True if self_complementary else None)
    if self_complementary:
        assert rep["theta"] == pytest.approx(math.sqrt(n), abs=1e-5)


def test_op_propagation_rows_all_pass():
    rows = op_propagation_suite()
    assert len(rows) == 12
    assert all(r["ok"] for r in rows)
    by_key = {(r["graph"], r["operation"]): r for r in rows}
    assert by_key[("C5", "cosum")]["expected"] == pytest.approx(ROOT5, abs=1e-6)
    assert by_key[("C5", "twinning")]["expected"] == pytest.approx(2 * ROOT5, abs=1e-6)
    assert by_key[("Y5", "duplication")]["n"] == 20


def test_census_is_sixteen_circulants_plus_two():
    census = circulant10_census()
    names = [name for name, _ in census]
    assert len(census) == 18
    assert "Petersen" in names and "J(5,2)" in names
    assert sum(1 for n in names if n.startswith("Ci10")) == 16
    assert all(g.n == 10 for _, g in census)


def test_circulant10_survey():
    out = circulant10_suite()
    assert len(out["rows"]) == 18
    assert out["gap_graphs"] == sorted(
        ["Ci10(1,2)", "Ci10(1,4)", "Ci10(2,5)", "Ci10(1,4,5)", "Ci10(1,2,3)",
         "Ci10(1,2,5)", "Ci10(1,2,3,5)", "J(5,2)"]
    )
    assert out["j52_theta_equals_alpha_star"]
    ident = {d["graph"]: d for d in out["identifications"]}
    assert ident["Ci10(1,4)"]["verified"] and ident["Ci10(1,4)"]["construction"] == "twinning(C5)"
    assert ident["J(5,2)"]["verified"]
    assert ident["Ci10(1,2)"]["construction"] is None
    assert sum(1 for d in out["identifications"] if d["verified"]) == 6
    pet = next(r for r in out["rows"] if r["graph"] == "Petersen")
    assert not pet["gap"]
    assert pet["alpha"] == 4 and pet["theta"] == pytest.approx(4.0, abs=1e-5)


def test_violation_witness_identity_and_membership():
    c5 = gr.cycle_graph(5)
    p = np.full(5, 0.52)
    theta, pbar = eprinciple_violation_witness(c5, p)
    assert theta > 1 + 1e-6
    assert float(p @ pbar) == pytest.approx(theta, abs=1e-5)
    assert not eprinciple_pair_test(c5, p, pbar, tol=1e-6)
    inside, _ = th_membership(gr.complement(c5), pbar, tol=1e-4)
    assert inside


def test_violation_witness_rejects_quantum_points():
    c5 = gr.cycle_graph(5)
    with pytest.raises(ValueError):
        eprinciple_violation_witness(c5, np.full(5, 1 / ROOT5 - 0.01))
    with pytest.raises(ValueError):
        eprinciple_violation_witness(c5, [0.5, -0.1, 0.5, 0.5, 0.5])


def test_violation_witness_across_seeded_boundary_points():
    rng = np.random.default_rng(77)
    graphs = [gr.cycle_graph(5), gr.cycle_graph(7), gr.petersen_graph()]
    count = 0
    for g in graphs:
        gbar = gr.complement(g)
        for _ in range(7):
            w = rng.uniform(0.2, 1.0, size=g.n)
            scale = lovasz_theta(gbar, weights=tuple(w))
            p = (1.05 * w) / scale
            theta, pbar = eprinciple_violation_witness(g, p)
            assert theta > 1 + 1e-6
            assert float(p @ pbar) == pytest.approx(theta, abs=2e-4)
            assert not eprinciple_pair_test(g, p, pbar, tol=1e-6)
            count += 1
    assert count == 21


_C5 = gr.cycle_graph(5)


@pytest.mark.parametrize("call", [
    lambda tol: duality_suite(_C5, tol=tol),
    lambda tol: op_propagation_suite(tol=tol),
    lambda tol: circulant10_suite(tol=tol),
    lambda tol: eprinciple_pair_test(_C5, [0.4] * 5, [0.4] * 5, tol=tol),
    lambda tol: eprinciple_violation_witness(_C5, [0.5] * 5, tol=tol),
], ids=["duality", "ops", "circulant10", "pair-test", "violation-witness"])
@pytest.mark.parametrize("tol", [0.0, -1.0, math.nan])
def test_a_suite_tolerance_is_checked_before_any_solve(monkeypatch, call, tol):
    def never(*args, **kwargs):
        raise AssertionError("solved with an invalid tolerance")

    for name in ("lovasz_theta", "lovasz_theta_matrix", "bounds_report", "circulant10_census"):
        monkeypatch.setattr(excl, name, never)
    monkeypatch.setattr(gr, "is_vertex_transitive", never)
    with pytest.raises(ValueError, match="^tol must be "):
        call(tol)
