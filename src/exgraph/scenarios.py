"""Measurement scenarios and empirical models.

A scenario lists measurements, the outcome alphabet they share, and the
contexts (tuples of jointly measurable measurements).  An empirical model
attaches a probability table to each context.  The module tests the two
classical consistency layers: nondisturbance (overlapping contexts agree on
their shared marginals) and the existence of a global section (one joint
distribution over all measurements reproducing every table).

The cyclic family gets dedicated constructors: the scenario with contexts
(M_i, M_{i+1 mod n}), its tight correlation inequalities, and the
exclusivity graph spanned by an inequality's favored events.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .bounds import assignment_hull, hull_membership
from .graph import Graph, _index, _reals, from_edges

# longest cycle whose tight inequalities are listed (2^12 = 4,096 of them):
# its 2^13 deterministic assignments are the most a hull LP takes
# (_HULL_MAX_COLUMNS), so no longer cycle's models can be tested anyway
_MAX_INEQUALITY_CYCLE = 13


@dataclass(frozen=True)
class Scenario:
    measurements: tuple[str, ...]
    outcomes: tuple[int, ...]
    contexts: tuple[tuple[str, ...], ...]

    def __post_init__(self):
        if len(set(self.measurements)) != len(self.measurements):
            raise ValueError("duplicate measurement names")
        if not self.outcomes:
            raise ValueError("empty outcome alphabet")
        if len(set(self.outcomes)) != len(self.outcomes):
            raise ValueError("duplicate outcomes")
        known = set(self.measurements)
        seen = set()
        for ctx in self.contexts:
            if len(set(ctx)) != len(ctx):
                raise ValueError(f"repeated measurement in context {ctx}")
            for m in ctx:
                if m not in known:
                    raise ValueError(f"context references unknown measurement {m!r}")
            if ctx in seen:
                raise ValueError(f"duplicate context {ctx}")
            seen.add(ctx)


@dataclass
class EmpiricalModel:
    scenario: Scenario
    tables: dict[tuple[str, ...], dict[tuple[int, ...], float]]

    def validate(self, tol: float = 1e-9) -> None:
        outcomes = set(self.scenario.outcomes)
        for ctx in self.scenario.contexts:
            if ctx not in self.tables:
                raise ValueError(f"missing table for context {ctx}")
            table = self.tables[ctx]
            probs = _reals(list(table.values()), f"probabilities at {ctx}", (None,))
            total = 0.0
            for key, p in zip(table, probs.tolist()):
                if len(key) != len(ctx):
                    raise ValueError(f"outcome tuple {key} does not match context {ctx}")
                if any(o not in outcomes for o in key):
                    raise ValueError(f"outcome tuple {key} uses values outside the alphabet")
                if p < -tol:
                    raise ValueError(f"negative probability {p} at {ctx}:{key}")
                total += p
            if abs(total - 1.0) > max(tol, 1e-9 * len(table)):
                raise ValueError(f"table for {ctx} sums to {total}")
        for ctx in self.tables:
            if ctx not in self.scenario.contexts:
                raise ValueError(f"table for unknown context {ctx}")

    def prob(self, ctx: tuple[str, ...], outcome: tuple[int, ...]) -> float:
        return self.tables[tuple(ctx)].get(tuple(outcome), 0.0)

    def marginal(self, ctx: tuple[str, ...], on: tuple[str, ...]) -> dict[tuple[int, ...], float]:
        ctx = tuple(ctx)
        idx = [ctx.index(m) for m in on]
        out: dict[tuple[int, ...], float] = {}
        for key, p in self.tables[ctx].items():
            sub = tuple(key[i] for i in idx)
            out[sub] = out.get(sub, 0.0) + p
        return out

    def to_json_dict(self) -> dict:
        return {
            "measurements": list(self.scenario.measurements),
            "outcomes": list(self.scenario.outcomes),
            "contexts": [list(c) for c in self.scenario.contexts],
            "tables": {
                ",".join(ctx): {
                    ",".join(str(o) for o in key): p for key, p in sorted(table.items())
                }
                for ctx, table in self.tables.items()
            },
        }


def model_from_json_dict(data: dict) -> EmpiricalModel:
    try:
        scenario = Scenario(
            tuple(data["measurements"]),
            tuple(_index(o, "outcome") for o in data["outcomes"]),
            tuple(tuple(c) for c in data["contexts"]),
        )
        tables = {}
        for ctx_key, table in data["tables"].items():
            probs = _reals(list(table.values()), f"probabilities at {ctx_key}", (None,))
            tables[tuple(ctx_key.split(","))] = {
                tuple(int(tok) for tok in out_key.split(",")): p for out_key, p in zip(table, probs.tolist())
            }
    except (AttributeError, KeyError, TypeError, ValueError) as exc:
        raise ValueError(f"malformed model: {exc}") from exc
    model = EmpiricalModel(scenario, tables)
    model.validate(tol=1e-6)
    return model


def check_nondisturbance(model: EmpiricalModel, tol: float = 1e-9) -> tuple[bool, list[dict]]:
    """Do overlapping contexts agree on their shared marginals?"""
    violations = []
    contexts = model.scenario.contexts
    for i in range(len(contexts)):
        for j in range(i + 1, len(contexts)):
            shared = tuple(m for m in contexts[i] if m in contexts[j])
            if not shared:
                continue
            ma = model.marginal(contexts[i], shared)
            mb = model.marginal(contexts[j], shared)
            keys = set(ma) | set(mb)
            diff = max(abs(ma.get(k, 0.0) - mb.get(k, 0.0)) for k in keys)
            if diff > tol:
                violations.append(
                    {
                        "contexts": [list(contexts[i]), list(contexts[j])],
                        "shared": list(shared),
                        "max_difference": diff,
                    }
                )
    return not violations, violations


def has_global_section(model: EmpiricalModel, tol: float = 1e-7) -> tuple[bool, dict]:
    """Is there one joint distribution over all measurements inducing every
    context table?

    Returns (True, {"distribution": {assignment: weight}}) with assignments
    as (measurement, outcome) tuples, or (False, certificate) where the
    certificate is a functional nonpositive on every deterministic
    assignment but positive on the model.
    """
    scn = model.scenario
    midx = {m: i for i, m in enumerate(scn.measurements)}
    sizes = (len(scn.outcomes),) * len(scn.measurements)
    vertices = assignment_hull(sizes, [tuple(midx[m] for m in ctx) for ctx in scn.contexts])
    events = [
        (ctx, outcome)
        for ctx in scn.contexts
        for outcome in itertools.product(scn.outcomes, repeat=len(ctx))
    ]
    point = [model.prob(ctx, outcome) for ctx, outcome in events]
    exists, y, margin = hull_membership(vertices, point, tol)
    if exists:
        cols = np.flatnonzero(y > tol)
        atoms = np.transpose(np.unravel_index(cols, sizes)).tolist()
        dist = {tuple((m, scn.outcomes[o]) for m, o in zip(scn.measurements, atom)): float(y[col])
                for col, atom in zip(cols, atoms)}
        return True, {"distribution": dist}
    # y is a consistency inequality every global section obeys and the
    # model breaks
    coeffs = {}
    for (ctx, outcome), coef in zip(events, y[:-1]):
        if abs(coef) > tol:
            coeffs.setdefault(",".join(ctx), {})[",".join(str(o) for o in outcome)] = float(coef)
    return False, {"coefficients": coeffs, "constant": float(y[-1]), "margin": margin}


# ---------------------------------------------------------------------------
# the cyclic family


def ncycle_scenario(n: int) -> Scenario:
    """n dichotomic measurements, adjacent pairs jointly measurable."""
    n = _index(n, "cycle length", lo=3)
    names = tuple(f"M{i}" for i in range(n))
    contexts = tuple((names[i], names[(i + 1) % n]) for i in range(n))
    return Scenario(names, (1, -1), contexts)


@dataclass(frozen=True)
class Inequality:
    """Sum of favored-event probabilities with an affine rescaling.

    The probability form is s = sum of p(event); the correlation form is
    scale*s + offset.  `bound` caps the correlation form over global
    sections, `prob_bound` the probability form.
    """

    name: str
    gamma: tuple[int, ...]
    events: tuple[tuple[int, tuple[int, int]], ...]
    scale: float
    offset: float
    bound: float
    prob_bound: float


def ncycle_inequality(n: int, gamma) -> Inequality:
    n = _index(n, "cycle length")
    gamma = tuple(_index(g, "cycle sign") for g in gamma)
    if len(gamma) != n or any(g not in (1, -1) for g in gamma):
        raise ValueError("gamma must be a length-n tuple over {1, -1}")
    if sum(1 for g in gamma if g == -1) % 2 == 0:
        raise ValueError("tight cycle inequalities need an odd number of -1 signs")
    events = []
    for i, g in enumerate(gamma):
        if g == 1:
            events.append((i, (1, 1)))
            events.append((i, (-1, -1)))
        else:
            events.append((i, (1, -1)))
            events.append((i, (-1, 1)))
    label = "".join("+" if g == 1 else "-" for g in gamma)
    return Inequality(
        name=f"cycle{n}[{label}]",
        gamma=gamma,
        events=tuple(events),
        scale=2.0,
        offset=float(-n),
        bound=float(n - 2),
        prob_bound=float(n - 1),
    )


def ncycle_inequalities(n: int) -> list[Inequality]:
    """All 2^(n-1) tight correlation inequalities of the n-cycle scenario,
    for 3 <= n <= _MAX_INEQUALITY_CYCLE."""
    n = _index(n, "cycle length", 3, _MAX_INEQUALITY_CYCLE)
    out = []
    for gamma in itertools.product((1, -1), repeat=n):
        if sum(1 for g in gamma if g == -1) % 2 == 1:
            out.append(ncycle_inequality(n, gamma))
    return out


def evaluate_inequality(model: EmpiricalModel, ineq: Inequality, form: str = "correlation") -> float:
    """Value of the inequality on the model, in correlation or probability form."""
    if form not in ("correlation", "probability"):
        raise ValueError("form must be 'correlation' or 'probability'")
    contexts = model.scenario.contexts
    s = 0.0
    for ctx_idx, outcome in ineq.events:
        if ctx_idx >= len(contexts):
            raise ValueError(f"inequality references context {ctx_idx}, model has {len(contexts)}")
        s += model.prob(contexts[ctx_idx], outcome)
    if form == "probability":
        return s
    return ineq.scale * s + ineq.offset


def inequality_exclusivity_graph(ineq: Inequality, scenario: Scenario) -> Graph:
    """Graph on the inequality's favored events; edges join events that
    assign different outcomes to a shared measurement."""
    assignments = []
    labels = []
    for ctx_idx, outcome in ineq.events:
        ctx = scenario.contexts[ctx_idx]
        assignments.append(dict(zip(ctx, outcome)))
        labels.append(",".join(ctx) + "|" + ",".join(str(o) for o in outcome))
    edges = []
    for i in range(len(assignments)):
        for j in range(i + 1, len(assignments)):
            ai, aj = assignments[i], assignments[j]
            if any(m in aj and aj[m] != o for m, o in ai.items()):
                edges.append((i, j))
    return from_edges(len(assignments), edges, labels=tuple(labels))


# ---------------------------------------------------------------------------
# stock models


def _correlated() -> dict[tuple[int, int], float]:
    return {(1, 1): 0.5, (-1, -1): 0.5}


def _anticorrelated() -> dict[tuple[int, int], float]:
    return {(1, -1): 0.5, (-1, 1): 0.5}


def triangle_overlap_model() -> EmpiricalModel:
    """Three pairwise-measurable observables: two pairs perfectly correlated,
    the closing pair perfectly anticorrelated.  Nondisturbing, but the odd
    anticorrelation around the triangle rules out any global section."""
    scn = ncycle_scenario(3)
    tables = {
        scn.contexts[0]: _correlated(),
        scn.contexts[1]: _correlated(),
        scn.contexts[2]: _anticorrelated(),
    }
    model = EmpiricalModel(scn, tables)
    model.validate()
    return model


def pentagon_extremal_model() -> EmpiricalModel:
    """Extremal nondisturbing five-cycle box: adjacent pairs perfectly
    correlated around the cycle except one anticorrelated seam."""
    scn = ncycle_scenario(5)
    tables = {ctx: _correlated() for ctx in scn.contexts[:4]}
    tables[scn.contexts[4]] = _anticorrelated()
    model = EmpiricalModel(scn, tables)
    model.validate()
    return model


def pentagon_inequality() -> Inequality:
    """The five-cycle inequality whose favored events the extremal box wins
    with certainty: gamma flips sign exactly on the seam context."""
    return ncycle_inequality(5, (1, 1, 1, 1, -1))
