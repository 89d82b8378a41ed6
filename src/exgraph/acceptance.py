"""The acceptance battery: one function per numbered deliverable check.

Each criterion recomputes its quantities from scratch through the public
API and reports pass/fail with a short detail string; run_all() executes
the battery in order.  The test suite and the `suite acceptance` CLI
subcommand both drive this module.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import boxes, excl, kscolor, quantum, scenarios
from . import graph as gr
from .bounds import (
    bounds_report,
    fractional_packing,
    independence_number,
    lovasz_theta,
    lovasz_theta_matrix,
    maximal_cliques,
    qstab_membership_many,
    stab_membership_many,
    th_membership,
    th_membership_many,
    theta_circulant_oracle,
)

SQRT5 = math.sqrt(5)


@dataclass
class CriterionResult:
    cid: int
    description: str
    passed: bool
    details: str

    def line(self) -> str:
        tag = "PASS" if self.passed else "FAIL"
        return f"criterion {self.cid:2d} [{tag}] {self.description}: {self.details}"


def _result(cid: int, description: str, failures: list[str], summary: str) -> CriterionResult:
    if failures:
        return CriterionResult(cid, description, False, "; ".join(failures))
    return CriterionResult(cid, description, True, summary)


def criterion_1() -> CriterionResult:
    rep = bounds_report(gr.cycle_graph(5))
    failures = []
    if rep.alpha != 2:
        failures.append(f"alpha = {rep.alpha}, expected 2")
    if abs(rep.theta - SQRT5) > 1e-6:
        failures.append(f"theta = {rep.theta!r}, off sqrt(5) by {abs(rep.theta - SQRT5):.2e}")
    if abs(rep.alpha_star - 2.5) > 1e-9:
        failures.append(f"alpha* = {rep.alpha_star!r}")
    return _result(1, "pentagon triple alpha/theta/alpha*", failures,
                   f"alpha=2 theta={rep.theta:.9f} alpha*={rep.alpha_star:.12f}")


def criterion_2() -> CriterionResult:
    failures = []
    for n in (5, 7, 9, 11):
        g = gr.cycle_graph(n)
        c = math.cos(math.pi / n)
        want = n * c / (1 + c)
        theta = lovasz_theta(g)
        alpha, _ = independence_number(g)
        astar = fractional_packing(g)
        if abs(theta - want) > 1e-6:
            failures.append(f"C{n} theta off by {abs(theta - want):.2e}")
        if alpha != (n - 1) // 2:
            failures.append(f"C{n} alpha = {alpha}")
        if abs(astar - n / 2) > 1e-9:
            failures.append(f"C{n} alpha* = {astar!r}")
    for n in (4, 6, 8):
        g = gr.cycle_graph(n)
        theta = lovasz_theta(g)
        alpha, _ = independence_number(g)
        astar = fractional_packing(g)
        if alpha != n // 2:
            failures.append(f"C{n} alpha = {alpha}")
        if abs(theta - n / 2) > 1e-6:
            failures.append(f"C{n} theta = {theta!r}")
        if abs(astar - n / 2) > 1e-9:
            failures.append(f"C{n} alpha* = {astar!r}")
    return _result(2, "cycle families alpha/theta/alpha*", failures,
                   "odd n in {5,7,9,11} and even n in {4,6,8} all match")


def criterion_3() -> CriterionResult:
    failures = []
    checked = []
    for n in (5, 7):
        c = math.cos(math.pi / n)
        want = (3 * n * c - n) / (1 + c)
        ineq = scenarios.ncycle_inequality(n, (-1,) * n)
        g = scenarios.inequality_exclusivity_graph(ineq, scenarios.ncycle_scenario(n))
        if not gr.is_isomorphic(g, gr.prism_graph(n)):
            failures.append(f"n={n} event graph is not the prism")
        got = 2 * lovasz_theta(g, tol=2e-7) - n
        if abs(got - want) > 1e-6:
            failures.append(f"n={n} graph route off by {abs(got - want):.2e}")
        real = quantum.ncycle_quantum_realization(n)
        if abs(real.value - want) > 1e-6:
            failures.append(f"n={n} realization off by {abs(real.value - want):.2e}")
        checked.append(f"odd {n}: {want:.6f}")
    for n in (4, 6):
        want = n * math.cos(math.pi / n)
        gamma = (-1,) * (n - 1) + (1,)
        ineq = scenarios.ncycle_inequality(n, gamma)
        g = scenarios.inequality_exclusivity_graph(ineq, scenarios.ncycle_scenario(n))
        if not gr.is_isomorphic(g, gr.moebius_ladder(2 * n)):
            failures.append(f"n={n} event graph is not the moebius ladder")
        got = 2 * lovasz_theta(g, tol=2e-7) - n
        if abs(got - want) > 1e-6:
            failures.append(f"n={n} graph route off by {abs(got - want):.2e}")
        real = quantum.ncycle_quantum_realization(n)
        if abs(real.value - want) > 1e-6:
            failures.append(f"n={n} realization off by {abs(real.value - want):.2e}")
        checked.append(f"even {n}: {want:.6f}")
    return _result(3, "cycle inequality event graphs and realizations", failures, ", ".join(checked))


def criterion_4() -> CriterionResult:
    g = gr.subset_intersection_graph(3, 1)
    failures = []
    if g.n != 20:
        failures.append(f"n = {g.n}")
    alpha, _ = independence_number(g)
    if alpha != 4:
        failures.append(f"alpha = {alpha}")
    theta = lovasz_theta(g)
    if abs(theta - 5) > 1e-5:
        failures.append(f"theta = {theta!r}")
    return _result(4, "twenty-vertex family G(3,1)", failures,
                   f"n=20 alpha=4 theta={theta:.7f}" if not failures else "")


def criterion_5() -> CriterionResult:
    rows = [r for r in excl.op_propagation_suite() if r["graph"] == "C5"]
    failures = []
    ops = {r["operation"] for r in rows}
    if ops != {"cosum", "twinning", "duplication", "partial_twinning"}:
        failures.append(f"operations covered: {sorted(ops)}")
    for r in rows:
        if abs(r["theta"] - r["expected"]) > 1e-5:
            failures.append(f"{r['operation']} theta {r['theta']!r} vs {r['expected']!r}")
    return _result(5, "theta under cosum/twinning/duplication/partial twinning of C5",
                   failures, "cosum sqrt(5); twinning, duplication, partial twinning 2*sqrt(5)")


def criterion_6() -> CriterionResult:
    failures = []
    try:
        suite = excl.circulant10_suite()
    except RuntimeError as exc:
        return _result(6, "ten-vertex census", [str(exc)], "")
    if len(suite["gap_graphs"]) != 8:
        failures.append(f"{len(suite['gap_graphs'])} gap graphs")
    if not suite["j52_theta_equals_alpha_star"]:
        failures.append("J(5,2) theta != alpha*")
    for ident in suite["identifications"]:
        if ident["verified"] is False:
            failures.append(f"identification failed: {ident['graph']} as {ident['construction']}")
    return _result(6, "ten-vertex census: gap set, J(5,2), identifications", failures,
                   "8 gap graphs, identifications verified, theta(J52)=alpha*(J52)")


def criterion_7() -> CriterionResult:
    failures = []
    names = []
    entries = [
        ("C5", gr.cycle_graph(5)),
        ("C7", gr.cycle_graph(7)),
        ("C9", gr.cycle_graph(9)),
        ("M8", gr.moebius_ladder(8)),
        ("Y5", gr.prism_graph(5)),
        *excl.circulant10_census(),
    ]
    for name, g in entries:
        rep = excl.duality_suite(g, name)
        if not rep.vt_flag:
            failures.append(f"{name} not vertex-transitive")
            continue
        if rep.product < rep.n - 1e-5:
            failures.append(f"{name} product {rep.product!r} < n")
        if name == "C5" and abs(rep.product - 5) > 1e-5:
            failures.append(f"C5 product = {rep.product!r}")
        names.append(name)
    return _result(7, "vertex-transitive duality products", failures,
                   f"{len(names)} graphs, all products >= n; C5 product = 5")


def criterion_8() -> CriterionResult:
    c5 = gr.cycle_graph(5)
    failures = []
    ok_in, th_in = th_membership(c5, [1 / SQRT5] * 5)
    if not ok_in or abs(th_in - 1) > 1e-5:
        failures.append(f"1/sqrt(5) point: accepted={ok_in} theta={th_in!r}")
    ok_out, th_out = th_membership(c5, [0.5] * 5)
    if ok_out or abs(th_out - SQRT5 / 2) > 1e-5:
        failures.append(f"1/2 point: accepted={ok_out} theta={th_out!r}")
    pair_sum = 5 * 0.5 * 0.5
    if excl.eprinciple_pair_test(c5, [0.5] * 5, [0.5] * 5) or abs(pair_sum - 1.25) > 0:
        failures.append("pair product at 1/2 not rejected at 5/4")
    return _result(8, "quantum-set boundary on C5", failures,
                   f"boundary theta={th_in:.7f}, exterior theta={th_out:.7f}, pair sum 5/4 rejected")


def criterion_9() -> CriterionResult:
    failures = []
    p33 = kscolor.coloring_problem(kscolor.p33_vectors())
    if kscolor.classify_colorability(p33).status != "UNCOLORABLE":
        failures.append("33-ray system colorable")
    sub = kscolor.coloring_problem(kscolor.p33_proof_rays())
    res = kscolor.classify_colorability(sub)
    if res.status != "COLORABLE":
        failures.append("25-ray subset not colorable")
    else:
        ok, problems = kscolor.verify_coloring(sub, res.witness)
        if not ok:
            failures.append(f"25-ray witness invalid: {problems[:2]}")
    ks8 = kscolor.ks8_vectors()
    g8 = kscolor.orthogonality_graph(ks8)
    pins = {0: 1, 7: 1}  # rays A and H
    pinned = kscolor.ColoringProblem(g8, kscolor.full_bases(g8, 3), pins)
    if kscolor.classify_colorability(pinned).status != "UNCOLORABLE":
        failures.append("KS-8 with A=H=1 colorable")
    for name, spec in (("square", kscolor.peres_mermin_square()), ("star", kscolor.dim8_star())):
        rep = kscolor.verify_multiplicative_proof(spec)
        if not (rep.operators_ok and rep.lines_commute and rep.products_match):
            failures.append(f"{name} operator algebra failed")
        if rep.assignment_exists:
            failures.append(f"{name} admits a value assignment")
    return _result(9, "definite-value colorability and operator proofs", failures,
                   "33 rays uncolorable, 25-ray subset colorable, KS-8 pins refuted, square and star pass")


def criterion_10() -> CriterionResult:
    failures = []
    triangle = scenarios.triangle_overlap_model()
    nd, _ = scenarios.check_nondisturbance(triangle)
    if not nd:
        failures.append("triangle model disturbs")
    gs, _ = scenarios.has_global_section(triangle)
    if gs:
        failures.append("triangle model has a global section")
    kcbs = scenarios.pentagon_extremal_model()
    val = scenarios.evaluate_inequality(kcbs, scenarios.pentagon_inequality())
    if val != 5.0:
        failures.append(f"pentagon extremal value = {val!r}")
    gs2, _ = scenarios.has_global_section(kcbs)
    if gs2:
        failures.append("pentagon extremal model has a global section")
    return _result(10, "contextual models: triangle and pentagon extremal", failures,
                   "non-disturbing, no global sections, extremal value 5")


def criterion_11() -> CriterionResult:
    failures = []
    s = quantum.singlet_chsh()
    if abs(s - 2 * math.sqrt(2)) > 1e-9:
        failures.append(f"singlet value {s!r}")
    local, _ = boxes.is_local(quantum.singlet_box())
    if local:
        failures.append("singlet box classified local")
    pr = boxes.pr_box()
    ns, _ = boxes.is_nosignaling(pr)
    if not ns:
        failures.append("PR box signals")
    pr_local, _ = boxes.is_local(pr)
    if pr_local:
        failures.append("PR box classified local")
    if boxes.chsh_value(pr) != 4.0:
        failures.append(f"PR value {boxes.chsh_value(pr)!r}")
    for e in (0.0, 0.5, 1 / math.sqrt(2), 1.0):
        got = boxes.chsh_value(boxes.pr_box(2, e))
        if abs(got - 4 * e) > 1e-12:
            failures.append(f"noisy PR at {e}: {got!r}")
    return _result(11, "Bell layer: singlet and PR boxes", failures,
                   "singlet 2*sqrt(2) nonlocal, PR nonsignaling/nonlocal at 4, linear in noise")


def criterion_12() -> CriterionResult:
    failures = []
    vd = boxes.van_dam_ic(seed=17, trials=10_000)
    if vd.success != 1.0:
        failures.append(f"van Dam success {vd.success!r}")
    if abs(vd.mutual_information - 2.0) > 1e-12:
        failures.append(f"van Dam information {vd.mutual_information!r}")
    if boxes.ip_protocol_agreement(seed=99, instances=1000, bits=16) != 1.0:
        failures.append("inner-product protocol disagreed with the oracle")
    for d in (2, 3, 5):
        for levels in range(1, 7):
            for e in (0.0, 0.3, 1 / math.sqrt(2), 0.9, 1.0):
                got = boxes.nested_ic(d, e, levels).success
                want = ((d - 1) * e**levels + 1) / d
                if abs(got - want) > 1e-12:
                    failures.append(f"nested d={d} n={levels} e={e}: {got!r} vs {want!r}")
    lo = boxes.local_orthogonality_two_pr()
    if abs(lo - 1.25) > 1e-12:
        failures.append(f"two-copy orthogonal-event sum {lo!r}")
    return _result(12, "protocols: van Dam, inner product, nested boxes, two-copy activation",
                   failures, "all protocol identities hold")


_SAMPLING_CORPUS = [
    ("K3", lambda: gr.complete_graph(3)),
    ("P3", lambda: gr.path_graph(3)),
    ("C4", lambda: gr.cycle_graph(4)),
    ("C5", lambda: gr.cycle_graph(5)),
    ("C7", lambda: gr.cycle_graph(7)),
]

_SANDWICH_EXTRAS = [
    ("Petersen", lambda: gr.petersen_graph()),
    ("J(5,2)", lambda: gr.johnson_graph(5, 2)),
    ("Y5", lambda: gr.prism_graph(5)),
    ("M8", lambda: gr.moebius_ladder(8)),
]

_CIRCULANT_SPECS = (
    [(10, offs) for offs in [
        (1,), (1, 2), (1, 3), (1, 4), (1, 5), (2, 5),
        (1, 2, 3), (1, 2, 4), (1, 2, 5), (1, 3, 5), (1, 4, 5), (2, 4, 5),
        (1, 2, 3, 4), (1, 2, 3, 5), (1, 2, 4, 5), (1, 2, 3, 4, 5),
    ]]
    + [(n, (1,)) for n in range(4, 12)]
    + [(8, (1, 4)), (12, (1, 6)), (6, (1, 2, 3))]
)


def _chain_points(g: gr.Graph, rng: np.random.Generator) -> np.ndarray:
    """Criterion 13's 100 random points on g: positive weights scaled so the
    heaviest clique sums to between 0.2 and 1.3.  One uniform draw of shape
    (100, n + 1): each row's first n entries give the weights, 0.05 + 0.95u,
    and its last the scale, 0.2 + 1.1u.  These are the numbers a loop of
    uniform(0.05, 1.0, n) and uniform(0.2, 1.3) per point reads."""
    u = rng.uniform(size=(100, g.n + 1))
    w = 0.05 + 0.95 * u[:, : g.n]
    scale = 0.2 + 1.1 * u[:, g.n]
    clique_max = np.max([w[:, list(q)].sum(axis=1) for q in maximal_cliques(g)], axis=0)
    return w * scale[:, None] / clique_max[:, None]


def criterion_13() -> CriterionResult:
    failures = []
    for name, build in _SAMPLING_CORPUS + _SANDWICH_EXTRAS:
        g = build()
        alpha, _ = independence_number(g)
        theta = lovasz_theta(g)
        astar = fractional_packing(g)
        if not (alpha <= theta + 1e-6 and theta <= astar + 1e-6):
            failures.append(f"sandwich broken on {name}: {alpha} {theta!r} {astar!r}")

    rng = np.random.default_rng(2024)
    for name, build in _SAMPLING_CORPUS:
        g = build()
        points = _chain_points(g, rng)
        chain = zip(stab_membership_many(g, points), th_membership_many(g, points),
                    qstab_membership_many(g, points, tol=1e-6))
        for (in_stab, _), (in_th, _), (in_qstab, _) in chain:
            if in_stab and not in_th:
                failures.append(f"{name}: point in the classical set escaped the quantum set")
                break
            if in_th and not in_qstab:
                failures.append(f"{name}: point in the quantum set escaped the consistent set")
                break

    for n, offs in _CIRCULANT_SPECS:
        sdp = lovasz_theta_matrix(gr.circulant_graph(n, offs))[0]
        lp = theta_circulant_oracle(n, offs)
        if abs(sdp - lp) > 1e-6:
            failures.append(f"Ci{n}{offs}: SDP {sdp!r} vs LP {lp!r}")

    rng = np.random.default_rng(31)
    samples = 100_000
    budget = 4 / math.sqrt(samples)
    for k in range(20):
        a0 = float(rng.uniform(-0.3, 0.3))
        a_vec = rng.normal(size=3)
        a_vec *= rng.uniform(0.2, 1.0 - abs(a0)) / np.linalg.norm(a_vec)
        n_vec = rng.normal(size=3)
        n_vec /= np.linalg.norm(n_vec)
        got = quantum.bell_qubit_hv_expectation(a0, a_vec, n_vec, samples=samples, seed=1000 + k)
        want = a0 + float(a_vec @ n_vec)
        if abs(got - want) > budget:
            failures.append(f"HV direction {k}: error {abs(got - want):.4f} > {budget:.4f}")
    return _result(13, "property suites: sandwich, membership chain, dual solvers, HV sampling",
                   failures, "all four property families hold")


_CRITERIA = [
    criterion_1, criterion_2, criterion_3, criterion_4, criterion_5,
    criterion_6, criterion_7, criterion_8, criterion_9, criterion_10,
    criterion_11, criterion_12, criterion_13,
]


def run_all() -> list[CriterionResult]:
    return [fn() for fn in _CRITERIA]
