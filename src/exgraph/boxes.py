"""Multiparty boxes: conditional outcome distributions p(a|x), the
no-signaling and locality membership tests, standard linear functionals
(CHSH, guess-your-neighbors-input, the two-copy local-orthogonality sum),
and the box-powered communication protocols.

Tables are dense numpy arrays with one axis per party setting followed by
one axis per party outcome, so p(a|x) = table[x + a].
"""

from __future__ import annotations

import itertools
import math
import string
from dataclasses import dataclass, field

import numpy as np

from .bounds import assignment_hull, hull_membership
from .graph import _index, _reals

_MAX_TABLE_ENTRIES = 1 << 24
# a table has one axis per setting and per outcome of each party, and numpy
# arrays have at most 64 axes
_MAX_PARTIES = 32
_MAX_NESTED_LEVELS = 1_000_000
# sampling protocols run linearly in these, so larger requests are refused
_MAX_TRIALS = 1_000_000
_MAX_PROTOCOL_BITS = 4096
# van_dam_ic simulates its trials in chunks of this many trial pairs
_VAN_DAM_PAIRS = 1 << 13


@dataclass(frozen=True)
class BellScenario:
    settings: tuple[int, ...]
    outcomes: tuple[int, ...]

    def __post_init__(self):
        if len(self.settings) != len(self.outcomes) or not self.settings:
            raise ValueError("settings and outcomes must list one entry per party")
        if any(m < 1 for m in self.settings) or any(o < 1 for o in self.outcomes):
            raise ValueError("every party needs at least one setting and one outcome")
        # checked here, before any table of this shape is allocated
        if math.prod(self.table_shape()) > _MAX_TABLE_ENTRIES:
            raise ValueError("box table too large")

    @property
    def parties(self) -> int:
        return len(self.settings)

    def table_shape(self) -> tuple[int, ...]:
        return self.settings + self.outcomes


@dataclass
class Box:
    scenario: BellScenario
    table: np.ndarray

    def __post_init__(self):
        self.table = _reals(self.table, "box table", self.scenario.table_shape())

    def validate(self, tol: float = 1e-9) -> None:
        if float(self.table.min()) < -tol:
            raise ValueError(f"negative probability {self.table.min()}")
        p = self.scenario.parties
        sums = self.table.sum(axis=tuple(range(p, 2 * p)))
        worst = float(np.max(np.abs(sums - 1.0)))
        if worst > tol:
            raise ValueError(f"outcome tables deviate from normalization by {worst}")

    def prob(self, x, a) -> float:
        return float(self.table[tuple(x) + tuple(a)])

    def to_json_dict(self) -> dict:
        scn = self.scenario
        settings = scn.settings[0] if len(set(scn.settings)) == 1 else list(scn.settings)
        outcomes = scn.outcomes[0] if len(set(scn.outcomes)) == 1 else list(scn.outcomes)
        table = {}
        for x in itertools.product(*(range(m) for m in scn.settings)):
            inner = {}
            for a in itertools.product(*(range(o) for o in scn.outcomes)):
                inner[",".join(str(v) for v in a)] = float(self.table[x + a])
            table[",".join(str(v) for v in x)] = inner
        return {
            "parties": scn.parties,
            "settings": settings,
            "outcomes": outcomes,
            "table": table,
        }


def _per_party(value, parties: int, name: str) -> tuple[int, ...]:
    if not isinstance(value, (list, tuple)):
        return (_index(value, name),) * parties
    out = tuple(_index(v, name) for v in value)
    if len(out) != parties:
        raise ValueError(f"{name} must be a single integer or one per party")
    return out


def _table_key(key, sizes: tuple[int, ...], what: str) -> tuple[int, ...]:
    """Parse a "i,j,..." table key: one index per party, each in range (a
    negative index would otherwise wrap to the last setting or outcome)."""
    idx = tuple(int(tok) for tok in str(key).split(","))
    if len(idx) != len(sizes) or any(not 0 <= i < n for i, n in zip(idx, sizes)):
        raise ValueError(f"{what} key {key!r} is not {len(sizes)} indices below {list(sizes)}")
    return idx


def box_from_json_dict(data: dict) -> Box:
    try:
        parties = _index(data["parties"], "parties", 1, _MAX_PARTIES)
        settings = _per_party(data["settings"], parties, "settings")
        outcomes = _per_party(data["outcomes"], parties, "outcomes")
        scn = BellScenario(settings, outcomes)
        table = np.zeros(scn.table_shape())
        for x_key, inner in data["table"].items():
            x = _table_key(x_key, scn.settings, "settings")
            for a_key, p in inner.items():
                table[x + _table_key(a_key, scn.outcomes, "outcome")] = p
    except (AttributeError, KeyError, TypeError, ValueError, IndexError) as exc:
        raise ValueError(f"malformed box: {exc}") from exc
    box = Box(scn, table)
    box.validate(tol=1e-6)
    return box


def product_box(left: Box, right: Box) -> Box:
    """Independent side-by-side composition; left's parties come first."""
    p, q = left.scenario.parties, right.scenario.parties
    names = string.ascii_lowercase
    lx, la = names[:p], names[p : 2 * p]
    rx, ra = names[2 * p : 2 * p + q], names[2 * p + q : 2 * p + 2 * q]
    table = np.einsum(f"{lx}{la},{rx}{ra}->{lx}{rx}{la}{ra}", left.table, right.table)
    scn = BellScenario(
        left.scenario.settings + right.scenario.settings,
        left.scenario.outcomes + right.scenario.outcomes,
    )
    return Box(scn, table)


def is_nosignaling(box: Box, tol: float = 1e-9) -> tuple[bool, dict | None]:
    """Does every party's outcome marginal ignore the other choices?

    Checks, for each party, that the distribution of the remaining parties'
    outcomes is independent of that party's setting.
    """
    p = box.scenario.parties
    for i in range(p):
        marg = box.table.sum(axis=p + i)
        ref = np.take(marg, 0, axis=i)
        for s in range(1, box.scenario.settings[i]):
            diff = float(np.max(np.abs(np.take(marg, s, axis=i) - ref)))
            if diff > tol:
                return False, {
                    "party": i,
                    "settings_compared": [0, s],
                    "max_difference": diff,
                }
    return True, None


def is_local(box: Box, tol: float = 1e-7) -> tuple[bool, dict]:
    """LP membership in the convex hull of deterministic strategies.

    Returns (True, {"weights": ...}) with a local model, or (False,
    certificate) where the certificate is a Bell functional nonpositive on
    every deterministic strategy yet positive on the box.
    """
    scn = box.scenario
    # measurement (party i, setting x_i) is numbered party by party and the
    # contexts are the setting tuples, so the rows are the raveled table
    first = np.cumsum((0,) + scn.settings[:-1])
    sizes = tuple(o for m, o in zip(scn.settings, scn.outcomes) for _ in range(m))
    contexts = [tuple(first + x) for x in itertools.product(*(range(m) for m in scn.settings))]
    local, y, margin = hull_membership(assignment_hull(sizes, contexts), box.table.ravel(), tol)
    if local:
        cols = np.flatnonzero(y > tol)
        strategies = np.transpose(np.unravel_index(cols, sizes)).tolist()
        weights = {tuple(tuple(s[f : f + m]) for f, m in zip(first, scn.settings)): float(y[col])
                   for col, s in zip(cols, strategies)}
        return True, {"weights": weights}
    coeffs = {}
    shape = scn.table_shape()
    for r, coef in enumerate(y[:-1]):
        if abs(coef) > tol:
            idx = np.unravel_index(r, shape)
            xk = ",".join(str(int(v)) for v in idx[: scn.parties])
            coeffs.setdefault(xk, {})[",".join(str(int(v)) for v in idx[scn.parties :])] = float(coef)
    return False, {"coefficients": coeffs, "constant": float(y[-1]), "margin": margin}


def _require_scenario(box: Box, settings: tuple[int, ...], outcomes: tuple[int, ...], what: str) -> None:
    if box.scenario.settings != settings or box.scenario.outcomes != outcomes:
        raise ValueError(f"{what} needs scenario settings={settings} outcomes={outcomes}, got {box.scenario}")


def correlator(box: Box, x: int, y: int) -> float:
    """<A_x B_y> for a two-party binary box with outcomes {0, 1} read as {+1, -1}."""
    total = 0.0
    for a in range(2):
        for b in range(2):
            total += (-1) ** (a + b) * box.prob((x, y), (a, b))
    return total


def chsh_value(box: Box) -> float:
    """E(0,0) + E(0,1) + E(1,0) - E(1,1)."""
    _require_scenario(box, (2, 2), (2, 2), "CHSH")
    return correlator(box, 0, 0) + correlator(box, 0, 1) + correlator(box, 1, 0) - correlator(box, 1, 1)


def gyni_value(box: Box) -> float:
    """p(000|000) + p(110|011) + p(011|101) + p(101|110)."""
    _require_scenario(box, (2, 2, 2), (2, 2, 2), "GYNI")
    return (
        box.prob((0, 0, 0), (0, 0, 0))
        + box.prob((0, 1, 1), (1, 1, 0))
        + box.prob((1, 0, 1), (0, 1, 1))
        + box.prob((1, 1, 0), (1, 0, 1))
    )


def pr_box(d: int = 2, e: float = 1.0) -> Box:
    """Noisy d-outcome PR box: weight e on the correlated part
    (b - a = xy mod d) and 1-e on uniform noise.  Alice has d settings,
    Bob two."""
    d = _index(d, "d", lo=2)
    e = _reals(e, "mixing weight", lo=0, hi=1)
    scn = BellScenario((d, 2), (d, d))
    table = np.full(scn.table_shape(), (1.0 - e) / (d * d))
    for x in range(d):
        for y in range(2):
            for a in range(d):
                b = (a + x * y) % d
                table[x, y, a, b] += e / d
    return Box(scn, table)


def uniform_box(scenario: BellScenario) -> Box:
    norm = 1.0
    for o in scenario.outcomes:
        norm *= o
    return Box(scenario, np.full(scenario.table_shape(), 1.0 / norm))


def deterministic_box(scenario: BellScenario, strategy) -> Box:
    """Box from one deterministic strategy: strategy[i][x_i] is party i's
    outcome under setting x_i."""
    table = np.zeros(scenario.table_shape())
    for x in itertools.product(*(range(m) for m in scenario.settings)):
        a = tuple(strategy[i][x[i]] for i in range(scenario.parties))
        table[x + a] = 1.0
    return Box(scenario, table)


# ---------------------------------------------------------------------------
# the two-copy local-orthogonality activation

# events (outputs | inputs) on four parties; parties 1,2 hold copy one and
# parties 3,4 copy two
LO_EVENTS: tuple[tuple[tuple[int, ...], tuple[int, ...]], ...] = (
    ((0, 0, 0, 0), (0, 0, 0, 0)),
    ((1, 1, 1, 0), (0, 0, 1, 1)),
    ((0, 0, 1, 1), (0, 1, 1, 0)),
    ((1, 1, 0, 1), (1, 0, 1, 1)),
    ((0, 1, 1, 1), (1, 1, 0, 1)),
)


def _locally_orthogonal(e1, e2) -> bool:
    (a1, x1), (a2, x2) = e1, e2
    return any(u == v and p != q for u, v, p, q in zip(x1, x2, a1, a2))


def local_orthogonality_two_pr(copy: Box | None = None) -> float:
    """Sum of the five fixed event probabilities on two independent copies
    of a bipartite binary box (default: the perfect PR box).

    The events are pairwise locally orthogonal; that is re-verified on every
    call as a guard against party-order mistakes.
    """
    for i in range(len(LO_EVENTS)):
        for j in range(i + 1, len(LO_EVENTS)):
            if not _locally_orthogonal(LO_EVENTS[i], LO_EVENTS[j]):
                raise RuntimeError(f"events {i} and {j} are not locally orthogonal")
    if copy is None:
        copy = pr_box(2, 1.0)
    _require_scenario(copy, (2, 2), (2, 2), "two-copy composition")
    joint = product_box(copy, copy)
    return float(sum(joint.prob(x, a) for a, x in LO_EVENTS))


# ---------------------------------------------------------------------------
# protocols


@dataclass
class ProtocolResult:
    success: float
    mutual_information: float
    message_bits: int
    trials: int
    seed: int | None
    details: dict = field(default_factory=dict)


def _mutual_information_bits(joint: np.ndarray) -> float:
    joint = np.asarray(joint, dtype=float)
    total = joint.sum()
    if total <= 0:
        return 0.0
    joint = joint / total
    px = joint.sum(axis=1)
    py = joint.sum(axis=0)
    info = 0.0
    for i in range(joint.shape[0]):
        for j in range(joint.shape[1]):
            p = joint[i, j]
            if p > 0:
                info += p * math.log2(p / (px[i] * py[j]))
    return info


def van_dam_ic(seed: int, trials: int, e: float = 1.0) -> ProtocolResult:
    """Bob learns either of Alice's two bits through one PR-box use plus a
    single classical bit.

    Alice inputs the XOR of her bits and sends m = a0 + A; Bob inputs the
    index he wants and outputs m + B.  The reported mutual information
    I(a_0:guess|k=0) + I(a_1:guess|k=1) is computed exactly from the induced
    joint distribution; the success rate is a seeded simulation.
    """
    trials = _index(trials, "trials", 1, _MAX_TRIALS)
    box = pr_box(2, e)

    info = 0.0
    for k in (0, 1):
        joint = np.zeros((2, 2))
        for a0, a1 in itertools.product(range(2), repeat=2):
            x = a0 ^ a1
            data = (a0, a1)[k]
            for aa, bb in itertools.product(range(2), repeat=2):
                guess = (a0 ^ aa) ^ bb
                joint[data, guess] += 0.25 * box.prob((x, k), (aa, bb))
        info += _mutual_information_bits(joint)

    # Each trial of the seeded simulation is integers(0, 2, size=3) for
    # (a0, a1, k) and then choice(4, p=table[a0 ^ a1, k]).  On PCG64 the
    # integers are bit 31 of 32-bit half-words, taken low half first with the
    # high half kept for the next call, and choice draws u = (w >> 11) * 2**-53
    # from a fresh word w and returns how many entries of cumsum(p) / sum are
    # <= u.  Two trials therefore read five raw words,
    #     [a0 | a1]  [k | a0']  u  [a1' | k']  u'
    # and they are read here in chunks of whole pairs, which keeps that
    # alignment and keeps memory flat in `trials`.
    rng = np.random.default_rng(seed)
    cdf = box.table.reshape(2, 2, 4).cumsum(axis=-1)
    cdf = cdf / cdf[..., -1:]
    hits = 0
    for start in range(0, trials, 2 * _VAN_DAM_PAIRS):
        t = min(2 * _VAN_DAM_PAIRS, trials - start)
        w = rng.bit_generator.random_raw(5 * ((t + 1) // 2)).reshape(-1, 5)
        top = np.stack((w >> 31 & 1, w >> 63), axis=-1).reshape(-1, 10).astype(np.int64)
        a0, a1, k = (top[:, cols].reshape(-1)[:t] for cols in ([0, 3], [1, 6], [2, 7]))
        u = (w[:, [2, 4]].reshape(-1)[:t] >> 11) * 2.0**-53
        idx = np.count_nonzero(cdf[a0 ^ a1, k] <= u[:, None], axis=1)
        guess = a0 ^ (idx >> 1) ^ (idx & 1)
        hits += int(np.count_nonzero(guess == np.where(k == 1, a1, a0)))
    return ProtocolResult(
        success=hits / trials,
        mutual_information=info,
        message_bits=1,
        trials=trials,
        seed=seed,
        details={"mixing": e},
    )


@dataclass
class NestedIcResult:
    success: float
    e: float
    levels: int
    ic_violation_condition: bool


def nested_ic(d: int, e: float, levels: int) -> NestedIcResult:
    """Success probability of the depth-`levels` nested guessing protocol
    over noisy d-outcome boxes, by exact probability propagation.

    A level passes its value down undisturbed with probability e and
    replaces it with uniform noise otherwise, so q_k = e*q_{k-1} + (1-e)/d
    starting from q_0 = 1.  The flag reports the binary amplification
    condition 2e^2 > 1, and e comes back as the float that was read.
    """
    d = _index(d, "d", lo=2)
    levels = _index(levels, "levels", 1, _MAX_NESTED_LEVELS)
    e = _reals(e, "mixing weight", lo=0, hi=1)
    q = 1.0
    for _ in range(levels):
        q = e * q + (1.0 - e) / d
    return NestedIcResult(success=q, e=e, levels=levels, ic_violation_condition=2.0 * e * e > 1.0)


@dataclass
class IpProtocolResult:
    result: int
    bits_communicated: int


def ip_one_bit_protocol(x, y, seed: int) -> IpProtocolResult:
    """Distributed inner product mod 2 with one classical bit.

    One perfect PR box per position: party outputs XOR to x_i*y_i, so the
    XOR of Alice's outputs (her single message bit) and Bob's outputs equals
    the inner product.
    """
    xbits = [_index(v, "bit") for v in x]
    ybits = [_index(v, "bit") for v in y]
    if len(xbits) != len(ybits):
        raise ValueError("bit strings must have equal length")
    if any(v not in (0, 1) for v in xbits + ybits):
        raise ValueError("inputs must be bits")
    # one draw of all of Alice's box outputs reads the same stream as one
    # integers(0, 2) call per position
    a = np.random.default_rng(seed).integers(0, 2, size=len(xbits))
    b = a ^ (np.array(xbits, dtype=a.dtype) & np.array(ybits, dtype=a.dtype))
    message = int(np.bitwise_xor.reduce(a))
    bob = int(np.bitwise_xor.reduce(b))
    return IpProtocolResult(result=message ^ bob, bits_communicated=1)


def ip_protocol_agreement(seed: int, instances: int, bits: int) -> float:
    """Share of seeded random instances on which ip_one_bit_protocol sends
    one bit and returns the inner product mod 2 computed directly.

    One generator seeded with `seed` draws each instance's x, y and protocol
    seed in turn.  Both counts must be integers from 1 up to the trial or
    bit cap, else ValueError is raised before any instance runs.
    """
    instances = _index(instances, "trials", 1, _MAX_TRIALS)
    bits = _index(bits, "bits per instance", 1, _MAX_PROTOCOL_BITS)
    rng = np.random.default_rng(seed)
    agree = 0
    for _ in range(instances):
        x = rng.integers(0, 2, size=bits)
        y = rng.integers(0, 2, size=bits)
        res = ip_one_bit_protocol(x, y, seed=int(rng.integers(1 << 30)))
        if res.result == int(np.dot(x, y)) % 2 and res.bits_communicated == 1:
            agree += 1
    return agree / instances
