"""Exclusivity-principle engine.

Joint events of independent experiments are exclusive when they are
exclusive in at least one factor, which makes the conormal graph product the
right arena: cliques of pair events bound products of probabilities, and
that is the mechanism behind the pentagon bound, the complement-duality
checks, and the ten-vertex census where the principle pins the quantum
maximum.
"""

from __future__ import annotations

import itertools
import math
import random
from dataclasses import dataclass

import numpy as np

from . import graph as gr
from .bounds import (
    _THETA_TOL,
    _max_clique,
    bounds_report,
    lovasz_theta,
    lovasz_theta_matrix,
)


def conormal_product(g: gr.Graph, h: gr.Graph) -> gr.Graph:
    """Pair-event graph: (u1,v1) ~ (u2,v2) iff u1 ~ u2 or v1 ~ v2.

    Pair (u, v) is vertex u * h.n + v, so its row is the full h-blocks of
    u's neighbours in g together with v's row of h repeated in every block.
    """
    block = (1 << h.n) - 1
    every_block = sum(1 << (u * h.n) for u in range(g.n))
    blocks = [sum(block << (w * h.n) for w in gr._bits(row)) for row in g.rows]
    rows = tuple(g_part | h_row * every_block for g_part in blocks for h_row in h.rows)
    labels = tuple(f"{g.label(u)}*{h.label(v)}" for u in range(g.n) for v in range(h.n))
    return gr.Graph(g.n * h.n, rows, labels)


def matched_pair_events(n: int) -> tuple[tuple[int, int], ...]:
    """The doubling pairing (i, 2i mod n) used in the pentagon argument."""
    return tuple((i, (2 * i) % n) for i in range(n))


def one_round_symmetric_bound(g: gr.Graph) -> float:
    """Best bound on the symmetric event sum from one self-product round.

    A clique of k pair events forces k*P^2 <= 1 for the symmetric
    single-event probability P, so sum = n*P <= n/sqrt(k); the largest
    clique of the conormal square gives the strongest such bound.
    """
    product = conormal_product(g, g)
    omega, _ = _max_clique(product.rows, (1 << product.n) - 1)
    return g.n / math.sqrt(omega)


def pentagon_eprinciple_bound() -> float:
    """Maximum pentagon event sum allowed by the exclusivity principle.

    The five pair events (i, 2i mod 5) of two independent pentagon
    experiments are pairwise exclusive; their clique constraint 5*P^2 <= 1
    caps the symmetric probability, and max 5*P under it is sqrt(5).
    """
    c5 = gr.cycle_graph(5)
    product = conormal_product(c5, c5)
    pairs = [u * 5 + v for u, v in matched_pair_events(5)]
    for a, b in itertools.combinations(pairs, 2):
        if not product.has_edge(a, b):
            raise RuntimeError("matched pentagon pairs failed to form a clique")
    p_best = math.sqrt(1.0 / 5.0)
    return 5.0 * p_best


def eprinciple_pair_test(g: gr.Graph, p, pbar, tol: float = 1e-9) -> bool:
    """True iff sum_i p_i * pbar_i <= 1 + tol, with pbar read on the
    complement graph (exclusive there means compatible here)."""
    p = gr._reals(p, "p", (g.n,)).tolist()
    pbar = gr._reals(pbar, "pbar", (g.n,)).tolist()
    return sum(a * b for a, b in zip(p, pbar)) <= 1.0 + tol


@dataclass
class DualityReport:
    graph_id: str
    n: int
    theta_g: float
    theta_complement: float
    product: float
    vt_flag: bool
    self_complementary_flag: bool
    e_principle_max: float | None
    product_ok: bool | None
    e_ceiling_ok: bool | None
    self_comp_ok: bool | None

    def to_json_dict(self) -> dict:
        return {
            "graph": self.graph_id,
            "n": self.n,
            "theta": self.theta_g,
            "theta_complement": self.theta_complement,
            "product": self.product,
            "vertex_transitive": self.vt_flag,
            "self_complementary": self.self_complementary_flag,
            "e_principle_max": self.e_principle_max,
            "product_ok": self.product_ok,
            "e_ceiling_ok": self.e_ceiling_ok,
            "self_complementary_theta_ok": self.self_comp_ok,
        }


def duality_suite(g: gr.Graph, graph_id: str = "graph", tol: float = _THETA_TOL) -> DualityReport:
    """Complement-duality checks: theta(g)*theta(complement) >= n with
    equality (hence the e-principle ceiling n/theta_complement) on
    vertex-transitive graphs, and theta = sqrt(n) on self-complementary
    vertex-transitive ones."""
    gbar = gr.complement(g)
    vt = gr.is_vertex_transitive(g)
    self_comp = gr.is_isomorphic(g, gbar)
    theta_g = lovasz_theta(g, tol=tol)
    theta_c = lovasz_theta(gbar, tol=tol)
    product = theta_g * theta_c

    e_max = None
    product_ok = None
    ceiling_ok = None
    self_comp_ok = None
    if vt:
        e_max = g.n / theta_c
        product_ok = product >= g.n - 1e-5
        ceiling_ok = e_max >= theta_g - 1e-5
        if self_comp:
            self_comp_ok = abs(theta_g - math.sqrt(g.n)) <= 1e-5
    return DualityReport(
        graph_id, g.n, theta_g, theta_c, product, vt, self_comp,
        e_max, product_ok, ceiling_ok, self_comp_ok,
    )


def op_propagation_suite(tol: float = 1e-5, seed: int = 23) -> list[dict]:
    """How theta moves under the doubling operations.

    For each base graph: the cosum with itself keeps theta, while twinning,
    duplication, and any partial twinning double it.  Returns one row per
    (graph, operation) with the computed and expected values.
    """
    rng = random.Random(seed)
    bases = [
        ("C5", gr.cycle_graph(5)),
        ("C7", gr.cycle_graph(7)),
        ("Y5", gr.prism_graph(5)),
    ]
    rows = []
    for name, g in bases:
        base_theta = lovasz_theta(g)
        cross = gr._twin_cross_pairs(g)
        kept = rng.sample(cross, len(cross) // 2)
        ops = [
            ("cosum", gr.direct_cosum(g, g), base_theta),
            ("twinning", gr.twinning(g), 2 * base_theta),
            ("duplication", gr.duplication(g), 2 * base_theta),
            ("partial_twinning", gr.partial_twinning(g, kept), 2 * base_theta),
        ]
        for op_name, built, expected in ops:
            theta = lovasz_theta(built)
            rows.append({
                "graph": name,
                "operation": op_name,
                "n": built.n,
                "theta": theta,
                "expected": expected,
                "ok": abs(theta - expected) <= tol,
            })
    return rows


def _canonical_offsets(offs: tuple[int, ...]) -> tuple[int, ...]:
    """Smallest representative of the offset set under the multiplier
    symmetries of index-10 circulants."""
    best = None
    for m in (1, 3, 7, 9):
        folded = tuple(sorted({min((o * m) % 10, 10 - (o * m) % 10) for o in offs}))
        if best is None or folded < best:
            best = folded
    return best


def circulant10_census() -> list[tuple[str, gr.Graph]]:
    """All connected vertex-transitive graphs on 10 vertices: one circulant
    per multiplier class plus the Petersen graph and J(5,2)."""
    reps = set()
    for r in range(1, 6):
        for offs in itertools.combinations(range(1, 6), r):
            if math.gcd(10, *offs) != 1:
                continue
            reps.add(_canonical_offsets(offs))
    out = []
    for offs in sorted(reps, key=lambda t: (len(t), t)):
        name = "Ci10(" + ",".join(str(o) for o in offs) + ")"
        out.append((name, gr.circulant_graph(10, offs)))
    out.append(("Petersen", gr.petersen_graph()))
    out.append(("J(5,2)", gr.johnson_graph(5, 2)))
    return out


_GAP_GRAPH_OFFSETS = {
    "Ci10(1,2)": (1, 2),
    "Ci10(1,4)": (1, 4),
    "Ci10(2,5)": (2, 5),
    "Ci10(2,3,5)": (2, 3, 5),
    "Ci10(1,2,3)": (1, 2, 3),
    "Ci10(1,2,5)": (1, 2, 5),
    "Ci10(1,2,3,5)": (1, 2, 3, 5),
}


def circulant10_suite(tol: float = _THETA_TOL) -> dict:
    """The ten-vertex survey: census bounds, the graphs where the quantum
    maximum exceeds the classical one, and their structural identifications."""
    census = circulant10_census()
    for (na, ga), (nb, gb) in itertools.combinations(census, 2):
        if gr.is_isomorphic(ga, gb):
            raise RuntimeError(f"census graphs {na} and {nb} are isomorphic")
    rows = []
    for name, g in census:
        if not gr.is_vertex_transitive(g):
            raise RuntimeError(f"census graph {name} is not vertex-transitive")
        rep = bounds_report(g, tol)
        rows.append({
            "graph": name,
            "n": g.n,
            "alpha": rep.alpha,
            "theta": rep.theta,
            "alpha_star": rep.alpha_star,
            "theta_over_alpha": rep.ratio,
            "gap": rep.theta > rep.alpha + 1e-6,
        })

    by_name = dict(census)
    gap_names = {r["graph"] for r in rows if r["gap"]}
    matched = {}
    for famous, offs in _GAP_GRAPH_OFFSETS.items():
        target = gr.circulant_graph(10, offs)
        hits = [name for name, g in census if gr.is_isomorphic(g, target)]
        if len(hits) != 1:
            raise RuntimeError(f"{famous} matched census rows {hits}")
        matched[famous] = hits[0]
    matched["J(5,2)"] = "J(5,2)"
    if set(matched.values()) != gap_names:
        raise RuntimeError(
            f"gap rows {sorted(gap_names)} differ from the expected eight {sorted(set(matched.values()))}"
        )

    c5 = gr.cycle_graph(5)
    twin = gr.twinning(c5)
    partial = gr.partial_twinning(c5, [(u, (u + 1) % 5) for u in range(5)])
    constructions = [
        ("Ci10(1,4)", "twinning(C5)", twin, "same class as Ci10(2,3)"),
        ("Ci10(2,5)", "partial twinning(C5)", partial, None),
        ("Ci10(2,3,5)", "complement(twinning(C5))", gr.complement(twin), None),
        ("Ci10(1,2,3)", "complement(partial twinning(C5))", gr.complement(partial), None),
        ("Ci10(1,2,3,5)", "cosum(C5,C5)", gr.direct_cosum(c5, c5), None),
        ("J(5,2)", "complement(Petersen)", gr.complement(gr.petersen_graph()), None),
    ]
    identifications = []
    for famous, construction, built, note in constructions:
        reference = (
            gr.circulant_graph(10, _GAP_GRAPH_OFFSETS[famous])
            if famous in _GAP_GRAPH_OFFSETS
            else by_name["J(5,2)"]
        )
        identifications.append({
            "graph": famous,
            "construction": construction,
            "verified": gr.is_isomorphic(built, reference),
            "note": note,
        })
    for famous in ("Ci10(1,2)", "Ci10(1,2,5)"):
        identifications.append({
            "graph": famous,
            "construction": None,
            "verified": None,
            "note": "no structural identification known",
        })

    j52 = next(r for r in rows if r["graph"] == "J(5,2)")
    return {
        "rows": rows,
        "gap_graphs": sorted(gap_names),
        "matched_names": matched,
        "identifications": identifications,
        "j52_theta_equals_alpha_star": abs(j52["theta"] - j52["alpha_star"]) <= 1e-5,
    }


def eprinciple_violation_witness(g: gr.Graph, p, tol: float = 1e-6):
    """For p outside the quantum set of g, extract pbar in the quantum set
    of the complement with sum p_i pbar_i > 1.

    The optimizer of the weighted theta program on the complement yields the
    partner assignment; returns (theta, pbar) where theta = sum p_i pbar_i.
    """
    p = gr._reals(p, "weights", (g.n,), lo=0)
    gbar = gr.complement(g)
    theta, x = lovasz_theta_matrix(gbar, weights=p)
    if theta <= 1.0 + tol:
        raise ValueError(f"p is inside the quantum set (theta = {theta:.6f})")
    root = np.sqrt(p)
    image = x @ root
    diag = np.clip(np.diag(x), 0.0, None)
    with np.errstate(divide="ignore", invalid="ignore"):
        pbar = np.where(diag > 1e-12, image**2 / (theta * np.where(diag > 1e-12, diag, 1.0)), 0.0)
    return float(theta), pbar
