"""The benchmark's three workloads: inputs made from the seed, the calls into
exgraph's public functions, and the oracle each result must pass.

Why these inputs
----------------
acceptance
    `exgraph suite acceptance` run in process through `cli.run`, with
    `all_passed` read back from the emitted JSON.  Its inputs are fixed, so
    it takes no seed.  It is the only workload with theta-memo hits and with
    colouring, isomorphism, scenario and sampler work; one hard n=20 theta
    solve (criterion 5) and some 570 tiny weighted theta solves plus 500
    small stab LPs (criterion 13) dominate it.
bounds
    `bounds_report` (alpha, theta, alpha*) on three families, each with its
    own oracle.  Large dense SDPs and the tall degenerate packing LP are the
    costs.
    ADMM run time is heavy-tailed on both random families below (probes of
    single G(20, 0.3) draws ranged from 350 to 178,850 iterations), so fresh
    draws per seed would make a run's time depend on luck rather than on the
    code.  Their graphs therefore come from fixed pools (`POOL_SEED`, drawn
    in order and never re-drawn) and the seed relabels every vertex.  ADMM
    iteration counts are invariant under relabelling; LP pivot paths are not.
    * G(n, 0.3) draws, oracle alpha <= theta <= alpha* plus an exact alpha.
      Pool costs for n = 20, 22, ..., 32 were probed at 0.3, 1.9, 22, 2.2,
      1.7, 0.5 and 20 s (n=24 needs 177,450 iterations, n=32 78,650); only
      n = 20 and 22 fit a run, the rest are left out for length.
    * Partial twinnings of odd cycles (half of the cross edges), oracle
      theta = 2 theta(C_n) in closed form; the class where ADMM is slowest
      for its size (the second C7 draw needs 38,600 iterations).  The pool's
      next draw, a partial twinning of C11, is left out: it stops at the
      200,000-iteration cap and raises SdpError, which at about 0.1 ms per
      iteration of a 22-vertex solve takes longer than a whole run, so it
      belongs to a separate long workload.
    * Conormal products C_a x C_b with ab <= 30, built by
      `excl.conormal_product`, oracle: alpha and theta are the products of
      the factors' closed forms, and alpha* is ab / omega by vertex
      transitivity (alpha* does not multiply: alpha*(C5 x C5) = 5, not
      6.25).  They keep their natural labels: relabelling changes the
      packing LP's pivot path, and with C4 x C6 among them it moved their
      total time between 1.8 and 4.1 s across seeds.  C4 x C6 (2.6-3 s),
      C4 x C7 (6 s) and C5 x C6 (8 s) are left out for length: more, shorter
      passes keep a run's median steadier on a host whose speed drifts.
membership
    The `exgraph membership` triple (stab, th, qstab) on points scaled
    against the heaviest clique, as in acceptance criterion 13, drawn from
    fixed low / middle / high strata so that both verdicts occur in every
    run, plus `boxes.is_local` on seeded mixtures of deterministic strategies,
    some with PR-box noise so that the Farkas path runs.  Graphs have 200 to
    1,400 independent sets (C11-C15, prisms, Moebius ladders, sparse G(14,
    0.3)); scenarios have up to 729 strategies.  Wide LPs are the cost.
    Every certificate is replayed against all independent sets or all
    deterministic strategies.  The weighted theta solve in th_membership is
    heavy-tailed too (one seeded M16 point took 28,400 iterations and 3 s,
    five times its usual cost), so graphs and points come from a fixed pool
    and the seed relabels their vertices; the boxes, whose LPs have no such
    tail, are drawn from the seed.  A C15 point outside STAB (4 s) is left
    out for length.

Also left out for length, for a later LP workload: `bounds` on C7 x C7 (did
not finish in 13 min), `stab_membership` on C16 (11-19 s) and C18 (255 s),
and the C5 x C7 packing LP (35 s).

No input is ever re-drawn or skipped after a failure: an item that raises
counts as failed and stays in every pass.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass
from typing import Callable

import numpy as np

import oracles as orc

POOL_SEED = 0
GNP_SIZES = (20, 22)
TWIN_CYCLES = (5, 5, 7, 7, 9, 9, 11)
CONORMAL_PAIRS = ((3, 7), (3, 9), (4, 4), (4, 5), (5, 5))

# scale of a point relative to its heaviest clique: low points lie in STAB,
# high points outside QSTAB, middle ones on either side
STRATA = {"l": (0.3, 0.5), "m": (0.8, 1.0), "h": (1.05, 1.3)}
MEMBERSHIP_GRAPHS = (
    ("C11", lambda: orc.cycle_adjacency(11), "lmh"),
    ("C13", lambda: orc.cycle_adjacency(13), "lh"),
    ("C14", lambda: orc.cycle_adjacency(14), "lm"),
    ("C15", lambda: orc.cycle_adjacency(15), "l"),
    ("Y7", lambda: orc.prism_adjacency(7), "lmh"),
    ("M14", lambda: orc.moebius_adjacency(14), "lh"),
    ("M16", lambda: orc.moebius_adjacency(16), "l"),
    ("G14a", None, "lh"),
    ("G14b", None, "lh"),
)
# (settings, outcomes, PR-noise mixtures as well as pure local ones)
BOX_SCENARIOS = (
    ((2, 2), (2, 2), True),
    ((3, 3), (2, 2), True),
    ((2, 2), (3, 3), True),
    ((3, 2), (3, 3), True),
    ((2, 2, 2), (2, 2, 2), False),
    ((3, 3), (3, 3), False),
)


@dataclass
class Item:
    label: str
    run: Callable[[], object]
    check: Callable[[object], str | None]  # None when the result is right


def _graph(gr, adj: np.ndarray):
    return gr.from_edges(adj.shape[0], orc.edge_list(adj))


def bounds_items(seed: int, tiny: bool) -> list[Item]:
    from exgraph import bounds, excl
    from exgraph import graph as gr

    gnp_pool = np.random.default_rng(POOL_SEED)
    twin_pool = np.random.default_rng(POOL_SEED)
    cases = []  # (label, adjacency, closed forms the report must match)
    for n in () if tiny else GNP_SIZES:
        cases.append((f"G({n},0.3)", orc.random_adjacency(gnp_pool, n, 0.3), {}))
    for n in TWIN_CYCLES[:1] if tiny else TWIN_CYCLES:
        cross = [(u, (u + d) % n) for u in range(n) for d in (1, n - 1)]
        kept = [cross[i] for i in sorted(twin_pool.choice(len(cross), size=len(cross) // 2, replace=False))]
        adj = orc.partial_twinning_adjacency(orc.cycle_adjacency(n), kept)
        cases.append((f"twin(C{n})", adj, {"theta": 2 * orc.cycle_values(n)[1]}))
    rng = np.random.default_rng(seed)
    items = []
    for label, adj, closed in cases:
        adj = orc.relabel(adj, rng.permutation(adj.shape[0]))
        g = _graph(gr, adj)
        items.append(Item(label, lambda g=g: bounds.bounds_report(g),
                          lambda rep, adj=adj, closed=closed: orc.check_report(adj, rep, **closed)))
    # conormal products keep their natural labels: relabelling changes the
    # packing LP's pivot path, which moved their time twofold across seeds
    for a, b in CONORMAL_PAIRS[2:3] if tiny else CONORMAL_PAIRS:
        ca, cb = orc.cycle_adjacency(a), orc.cycle_adjacency(b)
        ga, gb = _graph(gr, ca), _graph(gr, cb)
        (aa, ta, _), (ab, tb, _) = orc.cycle_values(a), orc.cycle_values(b)

        # alpha and theta multiply; alpha* = ab / omega by vertex transitivity
        # (it does not multiply: alpha*(C5 x C5) = 5, not 6.25)
        def check(rep, adj=orc.conormal_adjacency(ca, cb), alpha=aa * ab, theta=ta * tb):
            return orc.check_report(adj, rep, alpha=alpha, theta=theta,
                                    alpha_star=adj.shape[0] / orc.clique_number(adj))

        items.append(Item(f"C{a}xC{b}", lambda ga=ga, gb=gb: bounds.bounds_report(excl.conormal_product(ga, gb)),
                          check))
    return items


def _membership_item(gr, bounds, label, adj, p) -> Item:
    g = _graph(gr, adj)
    pts = p.tolist()

    def run():
        return bounds.stab_membership(g, pts), bounds.th_membership(g, pts), bounds.qstab_membership(g, pts)

    return Item(label, run, lambda res: orc.check_membership(adj, p, *res))


def _box_item(boxes, label, settings, outcomes, table, expect_local) -> Item:
    box = boxes.Box(boxes.BellScenario(settings, outcomes), table)
    return Item(label, lambda: boxes.is_local(box),
                lambda verdict: orc.check_locality(settings, outcomes, table, verdict, expect_local))


def membership_items(seed: int, tiny: bool) -> list[Item]:
    from exgraph import bounds, boxes
    from exgraph import graph as gr

    pool = np.random.default_rng(POOL_SEED)
    rng = np.random.default_rng(seed)
    items = []
    for name, build, strata in MEMBERSHIP_GRAPHS[:1] if tiny else MEMBERSHIP_GRAPHS:
        adj = build() if build else orc.random_adjacency(pool, 14, 0.3)
        for stratum in strata[:1] if tiny else strata:
            w = pool.uniform(0.05, 1.0, size=adj.shape[0])
            p = w * pool.uniform(*STRATA[stratum]) / orc.max_clique_weight(adj, w)
            perm = rng.permutation(adj.shape[0])
            moved = np.empty_like(p)
            moved[perm] = p
            items.append(_membership_item(gr, bounds, f"{name}/{stratum}", orc.relabel(adj, perm), moved))
    for settings, outcomes, noisy in BOX_SCENARIOS[:1] if tiny else BOX_SCENARIOS:
        strategies = orc.all_strategies(settings, outcomes)
        picks = rng.choice(len(strategies), size=5, replace=False)
        local = sum(w * orc.deterministic_table(settings, outcomes, strategies[i])
                    for w, i in zip(rng.dirichlet(np.ones(5)), picks))
        tag = f"{settings}/{outcomes}"
        items.append(_box_item(boxes, f"box{tag}/local", settings, outcomes, local, True))
        if noisy and not tiny:
            e = rng.uniform(0.7, 0.95)
            table = e * orc.pr_table(settings, outcomes[0]) + (1 - e) * local
            # with two settings and outcomes each, CHSH exceeds 2 once e > 2/3
            expect = False if outcomes == (2, 2) and settings == (2, 2) else None
            items.append(_box_item(boxes, f"box{tag}/pr", settings, outcomes, table, expect))
    return items


def acceptance_items(tiny: bool, tmp: str) -> list[Item]:
    from exgraph import cli

    out = os.path.join(tmp, f"acceptance-{os.getpid()}.json")
    argv = ["bounds", "--family", "cycle", "--n", "5"] if tiny else ["suite", "acceptance"]

    def check(rc) -> str | None:
        with open(out) as fh:
            data = json.load(fh)
        os.remove(out)
        if tiny:
            return None if rc == 0 and data["alpha"] == 2 else f"exit {rc}, output {data}"
        failed = [c["id"] for c in data["criteria"] if not c["passed"]]
        if rc != 0 or not data["all_passed"] or len(data["criteria"]) != 13 or failed:
            return f"exit {rc}, all_passed {data['all_passed']}, failed criteria {failed}"
        return None

    return [Item("acceptance" if not tiny else "cli bounds C5", lambda: cli.run(argv + ["--output", out]), check)]


def warm_up(workload: str, tmp: str) -> None:
    """One call per workload on an input that shares no theta memo key with
    the timed items, so the timed pass still starts cold."""
    from exgraph import bounds, boxes, cli
    from exgraph import graph as gr

    if workload == "acceptance":
        out = os.path.join(tmp, f"warm-{os.getpid()}.json")
        if cli.run(["bounds", "--family", "cycle", "--n", "13", "--output", out]) != 0:
            raise RuntimeError("warm-up call failed")
        os.remove(out)
    elif workload == "bounds":
        bounds.bounds_report(gr.petersen_graph())
    else:
        c5 = gr.cycle_graph(5)
        p = [0.3] * 5
        bounds.stab_membership(c5, p), bounds.th_membership(c5, p), bounds.qstab_membership(c5, p)
        boxes.is_local(boxes.pr_box(2, 0.5))


def make_items(workload: str, seed: int, tiny: bool, tmp: str) -> list[Item]:
    if workload == "acceptance":
        return acceptance_items(tiny, tmp)
    if workload == "bounds":
        return bounds_items(seed, tiny)
    if workload == "membership":
        return membership_items(seed, tiny)
    raise ValueError(f"unknown workload {workload!r}")


WORKLOADS = ("acceptance", "bounds", "membership")
