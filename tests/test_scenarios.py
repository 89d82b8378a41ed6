"""Measurement scenarios, nondisturbance, global sections, and the cyclic
inequality family."""

import itertools
import math
import re

import numpy as np
import pytest

from exgraph import graph as gr
from exgraph import bounds, scenarios
from exgraph.bounds import assignment_hull, assignment_membership
from exgraph.boxes import BellScenario, is_local, uniform_box
from exgraph.scenarios import (
    EmpiricalModel,
    Scenario,
    check_nondisturbance,
    evaluate_inequality,
    has_global_section,
    inequality_exclusivity_graph,
    model_from_json_dict,
    ncycle_inequalities,
    ncycle_inequality,
    ncycle_scenario,
    pentagon_extremal_model,
    pentagon_inequality,
    triangle_overlap_model,
)
from oracles import global_section_matrix


def test_scenario_validation():
    with pytest.raises(ValueError):
        Scenario(("A", "A"), (0, 1), ())
    with pytest.raises(ValueError):
        Scenario(("A", "B"), (), (("A",),))
    with pytest.raises(ValueError):
        Scenario(("A", "B"), (0, 1), (("A", "C"),))
    with pytest.raises(ValueError):
        Scenario(("A", "B"), (0, 1), (("A", "B"), ("A", "B")))


def test_model_validation_catches_bad_tables():
    scn = ncycle_scenario(3)
    tables = {ctx: {(1, 1): 0.5, (-1, -1): 0.5} for ctx in scn.contexts}
    EmpiricalModel(scn, tables).validate()
    broken = dict(tables)
    broken[scn.contexts[0]] = {(1, 1): 0.7, (-1, -1): 0.5}
    with pytest.raises(ValueError):
        EmpiricalModel(scn, broken).validate()
    broken[scn.contexts[0]] = {(1, 1, 1): 1.0}
    with pytest.raises(ValueError):
        EmpiricalModel(scn, broken).validate()


def test_model_json_roundtrip():
    model = triangle_overlap_model()
    again = model_from_json_dict(model.to_json_dict())
    for ctx in model.scenario.contexts:
        for outcome in itertools.product((1, -1), repeat=2):
            assert again.prob(ctx, outcome) == pytest.approx(model.prob(ctx, outcome))


@pytest.mark.parametrize("other", ["01,1", "+1,1", "1, 1"])
def test_a_second_spelling_of_an_outcome_key_is_refused(other):
    # int() reads "01" as 1, so the entry used to replace the one under "1,1"
    data = triangle_overlap_model().to_json_dict()
    data["tables"]["M1,M2"][other] = 0.5
    with pytest.raises(ValueError, match=re.escape(f"M1,M2 outcome key {other!r} is not spelled '1,1'")):
        model_from_json_dict(data)


_ABC = {
    "measurements": ["A", "B", "C"], "outcomes": [0, 1], "contexts": [["A", "B"], ["B", "C"], ["C", "A"]],
    "tables": {ctx: {"0,0": 0.5, "1,1": 0.5} for ctx in ("A,B", "B,C", "C,A")},
}


@pytest.mark.parametrize("field, value", [
    ("measurements", "ABC"), ("contexts", ["AB", "BC", "CA"]), ("contexts", "AB"), ("measurements", {"A": 0}),
])
def test_measurements_and_contexts_are_read_from_arrays_only(field, value):
    # a string used to be read as the list of its characters
    assert has_global_section(model_from_json_dict(_ABC))[0]
    with pytest.raises(ValueError, match="must be arrays"):
        model_from_json_dict(dict(_ABC, **{field: value}))


def test_marginal_sums():
    model = pentagon_extremal_model()
    ctx = model.scenario.contexts[0]
    marg = model.marginal(ctx, (ctx[0],))
    assert sum(marg.values()) == pytest.approx(1.0)
    assert marg[(1,)] == pytest.approx(0.5)


def test_stock_models_are_nondisturbing():
    for model in (triangle_overlap_model(), pentagon_extremal_model()):
        ok, failures = check_nondisturbance(model)
        assert ok and not failures


def test_nondisturbance_detects_signaling():
    scn = ncycle_scenario(3)
    tables = {ctx: {(1, 1): 0.5, (-1, -1): 0.5} for ctx in scn.contexts}
    # skew one marginal of M0 in the first context only
    tables[scn.contexts[0]] = {(1, 1): 0.8, (-1, -1): 0.2}
    model = EmpiricalModel(scn, tables)
    ok, failures = check_nondisturbance(model)
    assert not ok
    assert any("M0" in f["shared"] for f in failures)
    assert all(f["max_difference"] > 1e-9 for f in failures)


def test_triangle_has_no_global_section_with_valid_farkas_certificate():
    model = triangle_overlap_model()
    ok, cert = has_global_section(model)
    assert not ok
    assert cert["margin"] > 1e-7
    # replay the certificate: nonpositive on every deterministic assignment,
    # positive on the model
    scn = model.scenario
    coeffs = cert["coefficients"]
    for atom in itertools.product(scn.outcomes, repeat=len(scn.measurements)):
        lookup = dict(zip(scn.measurements, atom))
        total = cert["constant"]
        for ctx_key, table in coeffs.items():
            ctx = tuple(ctx_key.split(","))
            hit = ",".join(str(lookup[m]) for m in ctx)
            total += table.get(hit, 0.0)
        assert total <= 1e-7
    value = cert["constant"]
    for ctx_key, table in coeffs.items():
        ctx = tuple(ctx_key.split(","))
        for out_key, y in table.items():
            outcome = tuple(int(t) for t in out_key.split(","))
            value += y * model.prob(ctx, outcome)
    assert value > 1e-7


def test_pentagon_certificate_is_the_unscaled_cycle_inequality():
    ok, cert = has_global_section(pentagon_extremal_model())
    assert not ok
    assert cert["constant"] == pytest.approx(-3.0, abs=1e-12)
    assert cert["margin"] == pytest.approx(2.0, abs=1e-12)
    coefs = [y for table in cert["coefficients"].values() for y in table.values()]
    assert coefs
    for y in coefs:
        assert abs(y) == pytest.approx(1.0, abs=1e-12)


def _uniform_cycle_model(n):
    scn = ncycle_scenario(n)
    uniform = {o: 0.25 for o in itertools.product((1, -1), repeat=2)}
    return EmpiricalModel(scn, {ctx: dict(uniform) for ctx in scn.contexts})


def test_global_section_size_cap_is_checked_before_enumeration():
    # 2^14 = 16,384 global assignments, past the hull column cap
    with pytest.raises(ValueError):
        has_global_section(_uniform_cycle_model(14))
    # 2^40 assignments: enumerating them would never finish
    with pytest.raises(ValueError):
        has_global_section(_uniform_cycle_model(40))


def test_both_hulls_share_one_cap_message():
    cap = r"^\d+ deterministic assignments exceed the supported limit of 8192$"
    with pytest.raises(ValueError, match=cap):
        has_global_section(_uniform_cycle_model(14))
    with pytest.raises(ValueError, match=cap):
        is_local(uniform_box(BellScenario((4, 4), (4, 4))))


_HULL_SCENARIOS = {
    **{f"cycle{n}": (lambda n=n: ncycle_scenario(n)) for n in (3, 4, 5, 6, 7, 9)},
    "three-outcome": lambda: Scenario(
        ("A", "B", "C", "D"), (0, 1, 2), (("A", "B"), ("B", "C", "D"), ("D",), ("C", "A")),
    ),
}


@pytest.mark.parametrize("name", sorted(_HULL_SCENARIOS))
def test_assignment_hull_matches_the_event_comprehension(name):
    scn = _HULL_SCENARIOS[name]()
    midx = {m: i for i, m in enumerate(scn.measurements)}
    sizes = (len(scn.outcomes),) * len(scn.measurements)
    hull = assignment_hull(sizes, [tuple(midx[m] for m in ctx) for ctx in scn.contexts])
    assert np.array_equal(hull, global_section_matrix(scn))


def test_assignment_membership_names_weights_and_functionals():
    scn = _HULL_SCENARIOS["three-outcome"]()
    midx = {m: i for i, m in enumerate(scn.measurements)}
    sizes = (3,) * 4
    contexts = [tuple(midx[m] for m in ctx) for ctx in scn.contexts]
    rng = np.random.default_rng(11)
    picks = rng.integers(3, size=(5, 4))
    tables = [np.zeros((3,) * len(ctx)) for ctx in contexts]
    for w, a in zip(rng.dirichlet(np.ones(5)), picks):
        for table, ctx in zip(tables, contexts):
            table[tuple(a[list(ctx)])] += w
    inside, weights = assignment_membership(sizes, contexts, tables, 1e-9)
    assert inside
    rebuilt = [np.zeros_like(t) for t in tables]
    for a, w in weights:
        assert len(a) == 4 and all(type(o) is int for o in a) and w > 1e-9
        for table, ctx in zip(rebuilt, contexts):
            table[tuple(a[m] for m in ctx)] += w
    for table, expected in zip(rebuilt, tables):
        np.testing.assert_allclose(table, expected, atol=1e-9)
    # the single-member context D now sits on its least likely outcome, which
    # the context (B, C, D) gives at most a third of the mass
    tables[2] = np.eye(3)[np.argmin(tables[2])]
    inside, (terms, constant, margin) = assignment_membership(sizes, contexts, tables, 1e-9)
    assert not inside and margin > 0
    functional = [np.zeros_like(t) for t in tables]
    for k, idx, coef in terms:
        assert abs(coef) > 1e-9
        functional[k][idx] = coef
    row = np.concatenate([f.ravel() for f in functional])
    assert np.all(row @ assignment_hull(sizes, contexts) + constant <= 1e-8)
    point = np.concatenate([t.ravel() for t in tables])
    assert row @ point + constant == pytest.approx(margin, abs=1e-8)


def test_global_section_distribution_reproduces_tables():
    scn = ncycle_scenario(4)
    tables = {ctx: {o: 0.25 for o in itertools.product((1, -1), repeat=2)} for ctx in scn.contexts}
    model = EmpiricalModel(scn, tables)
    ok, cert = has_global_section(model)
    assert ok
    dist = cert["distribution"]
    assert sum(dist.values()) == pytest.approx(1.0, abs=1e-6)
    for ctx in scn.contexts:
        for outcome in itertools.product((1, -1), repeat=2):
            mass = sum(
                w
                for atoms, w in dist.items()
                if all(dict(atoms)[m] == o for m, o in zip(ctx, outcome))
            )
            assert mass == pytest.approx(model.prob(ctx, outcome), abs=1e-6)


def test_cycle_inequality_counts_and_constraints():
    for n in (3, 4, 5):
        ineqs = ncycle_inequalities(n)
        assert len(ineqs) == 2 ** (n - 1)
        assert len({i.name for i in ineqs}) == len(ineqs)
        for ineq in ineqs:
            assert sum(1 for g in ineq.gamma if g == -1) % 2 == 1
            assert len(ineq.events) == 2 * n
            assert ineq.bound == n - 2
            assert ineq.prob_bound == n - 1
    with pytest.raises(ValueError):
        ncycle_inequality(5, (1, 1, 1, -1, -1))
    with pytest.raises(ValueError):
        ncycle_inequality(4, (1, 1, 1))


def test_cycle_inequalities_check_the_length_before_listing():
    assert [i.name for i in ncycle_inequalities(5)] == [
        "cycle5[++++-]", "cycle5[+++-+]", "cycle5[++-++]", "cycle5[++---]",
        "cycle5[+-+++]", "cycle5[+-+--]", "cycle5[+--+-]", "cycle5[+---+]",
        "cycle5[-++++]", "cycle5[-++--]", "cycle5[-+-+-]", "cycle5[-+--+]",
        "cycle5[--++-]", "cycle5[--+-+]", "cycle5[---++]", "cycle5[-----]",
    ]
    for n in (2.5, 2, scenarios._MAX_INEQUALITY_CYCLE + 1, 10**9):
        with pytest.raises(gr.GraphError, match="cycle length"):
            ncycle_inequalities(n)


def test_correlation_and_probability_forms_are_affinely_linked():
    model = pentagon_extremal_model()
    ineq = pentagon_inequality()
    s = evaluate_inequality(model, ineq, form="probability")
    c = evaluate_inequality(model, ineq, form="correlation")
    assert c == pytest.approx(ineq.scale * s + ineq.offset)
    with pytest.raises(ValueError):
        evaluate_inequality(model, ineq, form="expectation")


def test_extremal_pentagon_box_saturates_the_nondisturbing_maximum():
    model = pentagon_extremal_model()
    value = evaluate_inequality(model, pentagon_inequality())
    assert value == pytest.approx(5.0, abs=1e-9)
    ok, _ = check_nondisturbance(model)
    assert ok
    ok, _ = has_global_section(model)
    assert not ok


def test_classical_bound_holds_for_deterministic_assignments():
    # every deterministic outcome assignment obeys each five-cycle
    # inequality, and at least one saturates it
    scn = ncycle_scenario(5)
    for ineq in ncycle_inequalities(5):
        best = -math.inf
        for atom in itertools.product((1, -1), repeat=5):
            tables = {}
            for i, ctx in enumerate(scn.contexts):
                j = (i + 1) % 5
                tables[ctx] = {(atom[i], atom[j]): 1.0}
            value = evaluate_inequality(EmpiricalModel(scn, tables), ineq)
            assert value <= ineq.bound + 1e-12
            best = max(best, value)
        assert best == pytest.approx(ineq.bound)


def test_event_graph_of_the_odd_cycle_is_the_prism():
    scn = ncycle_scenario(5)
    ineq = ncycle_inequality(5, (-1,) * 5)
    g = inequality_exclusivity_graph(ineq, scn)
    assert g.n == 10
    assert gr.is_isomorphic(g, gr.prism_graph(5))


def test_event_graph_of_the_even_cycle_is_the_moebius_ladder():
    scn = ncycle_scenario(4)
    ineq = ncycle_inequality(4, (-1, -1, -1, 1))
    g = inequality_exclusivity_graph(ineq, scn)
    assert g.n == 8
    assert gr.is_isomorphic(g, gr.moebius_ladder(8))


_TRIANGLE = triangle_overlap_model()


@pytest.mark.parametrize("call", [
    lambda tol: _TRIANGLE.validate(tol=tol),
    lambda tol: check_nondisturbance(_TRIANGLE, tol=tol),
    lambda tol: has_global_section(_TRIANGLE, tol=tol),
], ids=["validate", "nondisturbance", "global-section"])
@pytest.mark.parametrize("tol", [0.0, -1.0, math.nan])
def test_a_model_tolerance_is_checked_before_any_solve(monkeypatch, call, tol):
    def never(*args, **kwargs):
        raise AssertionError("solved with an invalid tolerance")

    monkeypatch.setattr(bounds, "hull_membership", never)
    with pytest.raises(ValueError, match="^tol must be "):
        call(tol)
